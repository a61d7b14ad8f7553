#include "speed.hpp"

#include <algorithm>
#include <memory_resource>
#include <random>
#include <unordered_map>

#include "report.hpp"

namespace perfbench {

namespace {

/// Keys the kernel inserts and looks up; a power of two.
constexpr std::size_t kKeys = 32768;
/// Bytes for the kernel's map, allocated once. The kernel takes its memory
/// from here and never from the heap: heap allocations interleaved with
/// the library's would change how the library's memory is laid out, and
/// with it the peak memory the benchmark reports (fleet's rose from 95 MB
/// to 140 MB).
constexpr std::size_t kArenaBytes = 4u << 20;
/// The kernel's time in a quiet spell on the host the benchmark was sized
/// on (an Intel Xeon VM with 4 vCPUs and AVX-512).
constexpr double kNominalSeconds = 1.5e-3;
/// CPU time between two samples of the kernel.
constexpr double kSamplePeriodSeconds = 0.05;
/// A scale uses the median of this many latest samples.
constexpr std::size_t kWindow = 5;

}  // namespace

HostSpeed::HostSpeed() : keys_(kKeys), arena_(kArenaBytes) {
  std::mt19937 gen(20140101);  // fixed: the kernel is the same in every run
  for (std::uint32_t& k : keys_) k = gen();
  resample();
}

void HostSpeed::resample() {
  for (std::size_t i = 0; i < kWindow; ++i) sample();
}

void HostSpeed::tick() {
  if (cpu_seconds() - last_sample_cpu_s_ >= kSamplePeriodSeconds) sample();
}

void HostSpeed::sample() {
  const double t0 = cpu_seconds();
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint32_t, std::uint32_t> map(&arena);
  for (std::size_t i = 0; i < kKeys; ++i)
    map[keys_[i]] = static_cast<std::uint32_t>(i);
  std::uint64_t found = 0;
  for (std::size_t i = 0; i < kKeys; ++i)
    found += map.count(keys_[(i * 7919) & (kKeys - 1)]);
  last_sample_cpu_s_ = cpu_seconds();
  sink_ += found;
  samples_s_.push_back(last_sample_cpu_s_ - t0);

  const std::size_t n = std::min(kWindow, samples_s_.size());
  std::vector<double> recent(samples_s_.end() - static_cast<long>(n),
                             samples_s_.end());
  factor_ = kNominalSeconds / median(recent);
}

double HostSpeed::slowdown() const {
  return median(samples_s_) / kNominalSeconds;
}

}  // namespace perfbench
