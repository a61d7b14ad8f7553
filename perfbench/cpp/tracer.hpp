#pragma once

/// \file tracer.hpp
/// In-memory span recorder for the traced runs.
///
/// A span has a name, a start, an end, the span that encloses it and a
/// group id: every span recorded for one TTI, one placement problem or one
/// transport block carries that unit's id. Spans are only recorded by the
/// benchmark's own code, around its calls into the library. A layer's self
/// time is the sum of its spans' durations minus the time their child
/// spans cover. write() dumps every span at exit (Chrome trace-event JSON,
/// loadable in Perfetto); nothing is written while the run is measured.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
    std::int64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; records nothing when the tracer is null.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name, std::int64_t group)
        : tracer_(tracer),
          index_(tracer ? tracer->open(name, group) : -1) {}
    ~Scope() {
      if (tracer_) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  Tracer();

  std::uint32_t intern(std::string_view name);
  std::int32_t open(std::uint32_t name, std::int64_t group);
  void close(std::int32_t index);

  struct LayerTime {
    std::uint64_t calls = 0;
    double self_ns = 0.0;
    double total_ns = 0.0;
  };
  /// Self and total time per span name.
  LayerTime layer(std::string_view name) const;
  std::size_t size() const noexcept { return spans_.size(); }

  /// Chrome trace-event JSON; group ids ride in args.
  void write(const std::string& path) const;

 private:
  static std::int64_t now_ns();
  void compute_self() const;

  std::int64_t epoch_ns_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  mutable std::vector<double> self_ns_;  ///< Per name; rebuilt lazily.
  mutable std::vector<double> total_ns_;
  mutable std::vector<std::uint64_t> calls_;
  mutable std::size_t computed_for_ = SIZE_MAX;
};

}  // namespace perfbench
