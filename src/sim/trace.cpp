#include "sim/trace.hpp"

#include <sstream>

#include "common/narrow.hpp"
#include "common/strings.hpp"

namespace pran::sim {

std::uint32_t Trace::intern(const std::string& category) {
  const auto it = category_ids_.find(category);
  if (it != category_ids_.end()) return it->second;
  const auto id = pran::narrow_cast<std::uint32_t>(category_ids_.size());
  category_ids_.emplace(category, id);
  category_counts_.push_back(0);
  return id;
}

void Trace::emit(Time at, std::string category, std::string message) {
  const std::uint32_t id = intern(category);
  TraceRecord record{at, id, std::move(category), std::move(message)};
  if (sink_ != nullptr) sink_->on_record(record);
  if (max_records_ != 0 && records_.size() >= max_records_) {
    ++dropped_;
    return;
  }
  ++category_counts_[id];
  records_.push_back(std::move(record));
}

void Trace::set_capacity(std::size_t max_records) noexcept {
  max_records_ = max_records;
}

std::size_t Trace::count(const std::string& category) const {
  const auto it = category_ids_.find(category);
  if (it == category_ids_.end()) return 0;
  return category_counts_[it->second];
}

std::string Trace::render() const {
  std::ostringstream os;
  for (const auto& r : records_)
    os << "t=" << format_duration(to_seconds(r.at)) << " [" << r.category
       << "] " << r.message << "\n";
  return os.str();
}

}  // namespace pran::sim
