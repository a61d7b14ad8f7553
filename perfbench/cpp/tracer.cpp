#include "tracer.hpp"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : epoch_ns_(now_ns()) { spans_.reserve(1u << 20); }

std::int64_t Tracer::now_ns() {
  // The same clock as every other timing of the benchmark (report.hpp).
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const std::string key(name);
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

std::int32_t Tracer::open(std::uint32_t name, std::int64_t group) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.group = group;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns() - epoch_ns_;
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns() - epoch_ns_;
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("tracer: spans closed out of order");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void Tracer::compute_self() const {
  if (computed_for_ == spans_.size()) return;
  self_ns_.assign(names_.size(), 0.0);
  total_ns_.assign(names_.size(), 0.0);
  calls_.assign(names_.size(), 0);
  for (const Span& s : spans_) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    total_ns_[s.name] += d;
    self_ns_[s.name] += d;
    ++calls_[s.name];
    if (s.parent >= 0)
      self_ns_[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
  }
  computed_for_ = spans_.size();
}

Tracer::LayerTime Tracer::layer(std::string_view name) const {
  compute_self();
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return {};
  return {calls_[it->second], self_ns_[it->second], total_ns_[it->second]};
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("tracer: cannot write " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"group\":%lld}}\n",
                  i ? "," : "", names_[s.name].c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.group));
    out << buf;
  }
  out << "]}\n";
}

}  // namespace perfbench
