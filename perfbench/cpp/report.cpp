#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "coding/simd/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Shortest decimal text that reads back as exactly `v`.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

constexpr std::size_t kReasonsShown = 8;

}  // namespace

void Report::contract(std::string name, double value, std::string unit,
                      std::uint64_t samples) {
  contract_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::detail(std::string name, double value, std::string unit,
                    std::uint64_t samples) {
  detail_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reasons_.size() < kReasonsShown) reasons_.push_back(why);
}

void Report::check(bool ok, const std::string& why) {
  if (ok) return;
  ++check_failures_;
  if (reasons_.size() < kReasonsShown) reasons_.push_back(why);
}

void Report::print(const Options& options) const {
  std::printf("%s\n", host_line().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  auto line = [](const char* kind, const Metric& m) {
    if (m.samples > 0)
      std::printf("%-8s %-32s %16s %-8s n=%llu\n", kind, m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    else
      std::printf("%-8s %-32s %16s %s\n", kind, m.name.c_str(),
                  number(m.value).c_str(), m.unit.c_str());
  };
  for (const Metric& m : detail_) line("metric", m);
  for (const Metric& m : contract_) line("result", m);
  std::printf("checks: attempted=%llu failed=%llu other_failures=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(check_failures_));
  for (const std::string& r : reasons_)
    std::printf("FAILED: %s\n", r.c_str());

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < contract_.size(); ++i) {
    const Metric& m = contract_[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

ItemTimes::ItemTimes(std::size_t items)
    : kept_s_(items), calls_(items, 0) {
  for (auto& kept : kept_s_) kept.reserve(kKept);
}

void ItemTimes::add(std::size_t item, double seconds) {
  std::vector<double>& kept = kept_s_.at(item);
  const std::uint64_t n = calls_[item]++;
  if (kept.size() < kKept) {
    kept.push_back(seconds);
    return;
  }
  rng_ ^= rng_ << 13;  // xorshift64
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % (n + 1);
  if (slot < kKept) kept[slot] = seconds;
}

std::vector<double> ItemTimes::micros() const {
  std::vector<double> us;
  for (const auto& kept : kept_s_)
    if (!kept.empty()) us.push_back(median(kept) * 1e6);
  return us;
}

double ItemTimes::sum() const {
  double total = 0.0;
  for (const auto& kept : kept_s_)
    if (!kept.empty()) total += median(kept);
  return total;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent that exec'd us (e.g. the Python wrapper).
  std::ifstream status("/proc/self/status");
  for (std::string l; std::getline(status, l);)
    if (l.rfind("VmHWM:", 0) == 0)
      return std::strtod(l.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

std::string host_line() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string l; std::getline(info, l);) {
    if (l.rfind("model name", 0) != 0) continue;
    const auto colon = l.find(':');
    if (colon != std::string::npos) cpu = l.substr(colon + 2);
    break;
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return "host: cpu=\"" + cpu + "\" nproc=" + std::to_string(cpus) +
         " isa=" +
         pran::coding::simd::isa_name(pran::coding::simd::active_isa()) +
         " build=" + PERFBENCH_BUILD_TYPE;
}

}  // namespace perfbench
