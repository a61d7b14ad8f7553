#pragma once

/// \file report.hpp
/// What one benchmark run measured, and how it is printed.
///
/// A run fills a Report: the contract metrics (the end-to-end set with
/// tracing off, the per-layer set with tracing on, always the same names
/// for every workload), the workload's own named metrics with their sample
/// counts, and the attempted/failed operation counts with the reason of
/// every failed check. print() writes the human-readable lines first and
/// the one-line JSON result last.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = a single measurement or a count.
};

class Report {
 public:
  /// A metric the result line carries (see BENCHMARK.json).
  void contract(std::string name, double value, std::string unit,
                std::uint64_t samples = 0);
  /// A workload-specific metric, printed by name only.
  void detail(std::string name, double value, std::string unit,
              std::uint64_t samples = 0);

  /// Counts one attempted operation; a false `ok` also counts it failed and
  /// keeps `why` (the first few reasons are printed).
  void attempt(bool ok, const std::string& why = "");
  /// A failed check that is not tied to one operation (it still makes the
  /// run incorrect).
  void check(bool ok, const std::string& why);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return failed_ == 0 && check_failures_ == 0; }

  void print(const Options& options) const;

 private:
  std::vector<Metric> contract_;
  std::vector<Metric> detail_;
  std::vector<std::string> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// Times of each item of a pool that a run solves or decodes over and
/// over, in pass after pass. An item's time is the median of its calls.
/// At most kKept calls per item are kept, a uniform sample of all of them
/// (reservoir sampling), so memory does not grow with the run.
class ItemTimes {
 public:
  explicit ItemTimes(std::size_t items);
  void add(std::size_t item, double seconds);
  /// Per-item median times in µs; items never timed are left out.
  std::vector<double> micros() const;
  /// Sum of the per-item median times, in seconds.
  double sum() const;

 private:
  static constexpr std::size_t kKept = 64;
  std::vector<std::vector<double>> kept_s_;
  std::vector<std::uint64_t> calls_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Host and build description printed with every result.
std::string host_line();

/// Wall clock; it only bounds how long a run lasts.
using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// On-CPU seconds of the calling thread. Every time the benchmark reports
/// is measured with it. The benchmark is one thread that never blocks, so
/// this is its wall time less the time the host ran something else on its
/// CPU: hypervisor steal and preemption.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
