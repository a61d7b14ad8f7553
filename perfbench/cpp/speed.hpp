#pragma once

/// \file speed.hpp
/// Scales measured times to one host speed.
///
/// On a shared host the same code runs up to 1.8x slower for seconds or
/// minutes at a time, in on-CPU time too: neighbours load the physical
/// core and its caches. A whole run can fall in such a spell, so no
/// estimator over one run's own samples removes it. HostSpeed therefore
/// times a fixed reference kernel of the benchmark's own during a run:
/// hash-map inserts and lookups, which hash and chase pointers in about
/// 1 MB, the same kind of work as the library's hot paths. Each measured
/// time is scaled by how much slower than nominal the kernel ran around
/// it. In sizing runs the kernel's time tracked the workloads' own with a
/// log-log slope of 0.94 (fleet episodes) and 1.01 (plan-milp runs),
/// correlation 0.99 (README.md).
///
/// The kernel never changes with the library, so a change to the library
/// moves the scaled times exactly as much as it moves the raw ones.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Allocates the kernel's arena and times the kernel a few times, so the
  /// first scale() has a reference.
  HostSpeed();

  /// Times the kernel again if ~50 ms of CPU time passed since it last
  /// ran. Call it between timed calls, never inside one.
  void tick();

  /// Times the kernel a few times now; factor() then rests on these alone.
  void resample();

  /// Nominal kernel time / its median time in the latest few samples.
  double factor() const noexcept { return factor_; }

  /// `cpu_s` seconds just measured, scaled to nominal host speed.
  double scale(double cpu_s) const noexcept { return cpu_s * factor_; }

  /// Median over the run of the kernel's time / its nominal time: about 1
  /// on the sizing host in a quiet spell.
  double slowdown() const;

 private:
  void sample();

  std::vector<std::uint32_t> keys_;
  std::vector<std::byte> arena_;
  std::vector<double> samples_s_;
  double factor_ = 1.0;
  double last_sample_cpu_s_ = 0.0;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
