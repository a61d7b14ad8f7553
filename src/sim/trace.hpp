#pragma once

/// \file trace.hpp
/// Structured event tracing for simulations: components append typed records
/// (category, time, message) that tests and examples can count and render.
/// Keeps the engine itself free of I/O.
///
/// Categories are interned: the category string is hashed once per emit,
/// and records carry a dense category id alongside the name, so count() is
/// O(1). Retention is capped (set_capacity): once the cap is reached new
/// records are dropped and counted in dropped(), so a long simulation
/// cannot grow the trace without bound. An optional TraceSink observes
/// every record — even capacity-dropped ones — which is how records reach
/// the telemetry layer without sim/ depending on it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace pran::sim {

struct TraceRecord {
  Time at = 0;
  std::uint32_t category_id = 0;
  std::string category;
  std::string message;
};

/// Observer for trace records; implemented outside sim/ (the
/// telemetry bridge) so the engine stays dependency-free.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_record(const TraceRecord& record) = 0;
};

/// Append-only trace with per-category counts. Not thread-safe; the
/// simulation is single-threaded by design.
class Trace {
 public:
  /// Records one entry.
  void emit(Time at, std::string category, std::string message);

  /// Caps retained records; 0 means unlimited (the default). Records
  /// emitted past the cap are dropped (newest-dropped) and counted.
  void set_capacity(std::size_t max_records) noexcept;
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Installs a non-owning observer of every record (nullptr to
  /// detach). The sink sees records even when the capacity cap drops them.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }

  const std::vector<TraceRecord>& records() const noexcept { return records_; }

  /// Number of *retained* records in a category.
  std::size_t count(const std::string& category) const;

  /// Renders "t=... [category] message" lines.
  std::string render() const;

 private:
  std::uint32_t intern(const std::string& category);

  std::vector<TraceRecord> records_;
  std::size_t max_records_ = 0;
  std::uint64_t dropped_ = 0;
  TraceSink* sink_ = nullptr;

  std::unordered_map<std::string, std::uint32_t> category_ids_;
  std::vector<std::size_t> category_counts_;  ///< Indexed by category id.
};

}  // namespace pran::sim
