#include "core/pipeline.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace pran::core {

Pipeline Pipeline::standard_uplink(lte::CostModel model) {
  Pipeline p;
  p.model_ = model;
  for (std::size_t i = 0; i < lte::kStageCount; ++i) {
    const auto stage = static_cast<lte::Stage>(i);
    p.append(StageSpec{lte::stage_name(stage), nullptr, stage});
  }
  return p;
}

void Pipeline::check_new(const StageSpec& stage) const {
  PRAN_REQUIRE(!stage.name.empty(), "stage needs a name");
  PRAN_REQUIRE((stage.cost_fn != nullptr) != stage.slice.has_value(),
               "stage needs a cost function or a cost-model slice");
  PRAN_REQUIRE(!contains(stage.name), "duplicate stage name");
  if (!stage.slice) return;
  PRAN_REQUIRE(*stage.slice < lte::Stage::kCount, "unknown cost-model slice");
  PRAN_REQUIRE(std::none_of(stages_.begin(), stages_.end(),
                            [&](const StageSpec& s) {
                              return s.slice == stage.slice;
                            }),
               "duplicate cost-model slice");
}

Pipeline& Pipeline::append(StageSpec stage) {
  check_new(stage);
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::insert_after(const std::string& existing,
                                 StageSpec stage) {
  check_new(stage);
  const auto it =
      std::find_if(stages_.begin(), stages_.end(),
                   [&](const StageSpec& s) { return s.name == existing; });
  PRAN_REQUIRE(it != stages_.end(), "insert_after: no such stage");
  stages_.insert(it + 1, std::move(stage));
  return *this;
}

Pipeline& Pipeline::remove(const std::string& name) {
  const auto it =
      std::find_if(stages_.begin(), stages_.end(),
                   [&](const StageSpec& s) { return s.name == name; });
  PRAN_REQUIRE(it != stages_.end(), "remove: no such stage");
  stages_.erase(it);
  return *this;
}

bool Pipeline::contains(const std::string& name) const {
  return std::any_of(stages_.begin(), stages_.end(),
                     [&](const StageSpec& s) { return s.name == name; });
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& s : stages_) names.push_back(s.name);
  return names;
}

double Pipeline::subframe_gops(
    const lte::CellConfig& cell,
    std::span<const lte::Allocation> allocs) const {
  const bool any_standard =
      std::any_of(stages_.begin(), stages_.end(),
                  [](const StageSpec& s) { return s.slice.has_value(); });
  const lte::StageCost cost =
      any_standard
          ? model_.subframe_cost(cell, allocs, lte::Direction::kUplink)
          : lte::StageCost{};
  double total = 0.0;
  for (const auto& s : stages_)
    total += s.slice ? cost[*s.slice] : s.cost_fn(cell, allocs);
  return total;
}

void Pipeline::price(const lte::CellConfig& cell,
                     std::span<const lte::Allocation> allocs,
                     lte::SubframeJob& job) const {
  std::array<bool, lte::kStageCount> kept{};
  double extra = 0.0;
  for (const auto& s : stages_) {
    if (s.slice)
      kept[static_cast<std::size_t>(*s.slice)] = true;
    else
      extra += s.cost_fn(cell, allocs);
  }
  for (std::size_t i = 0; i < lte::kStageCount; ++i)
    if (!kept[i]) job.cost.gops[i] = 0.0;
  job.extra_gops = extra;
}

namespace stages {

StageSpec interference_cancellation(double intensity) {
  PRAN_REQUIRE(intensity > 0.0, "intensity must be positive");
  return StageSpec{
      "interference-cancellation",
      [intensity](const lte::CellConfig& cell,
                  std::span<const lte::Allocation> allocs) {
        int prbs = 0;
        for (const auto& a : allocs) prbs += a.n_prb;
        const double ants = static_cast<double>(cell.antennas);
        // A second MMSE pass over the allocated band.
        return intensity * 14.0e3 * ants * ants *
               static_cast<double>(cell.mimo_layers) *
               static_cast<double>(prbs) / 1e9;
      }};
}

StageSpec comp_combining(int cooperating_cells) {
  PRAN_REQUIRE(cooperating_cells >= 2,
               "CoMP needs at least two cooperating cells");
  return StageSpec{
      "comp-combining",
      [cooperating_cells](const lte::CellConfig& cell,
                          std::span<const lte::Allocation> allocs) {
        int prbs = 0;
        for (const auto& a : allocs) prbs += a.n_prb;
        return 20.0e3 * static_cast<double>(cooperating_cells) *
               static_cast<double>(cell.antennas) *
               static_cast<double>(prbs) / 1e9;
      }};
}

StageSpec wideband_sounding() {
  return StageSpec{
      "wideband-sounding",
      [](const lte::CellConfig& cell, std::span<const lte::Allocation>) {
        return 30.0e3 * static_cast<double>(cell.antennas) *
               static_cast<double>(cell.n_prb) / 1e9;
      }};
}

}  // namespace stages
}  // namespace pran::core
