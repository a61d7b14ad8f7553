#pragma once

/// \file pipeline.hpp
/// The "programmable" in Programmable RAN.
///
/// PRAN's data plane is not a fixed modem: each cell's per-subframe
/// processing is described by a pipeline of named stages that operators can
/// rearrange and extend at run time (the paper's examples: interference
/// cancellation, CoMP combining, new scheduling hooks). In this simulation
/// library a stage contributes processing cost as a function of the cell
/// configuration and the subframe's allocations; the controller plans
/// capacity against the *programmed* pipeline, not a hard-coded one, so
/// adding a stage immediately shows up in placement and deadline behaviour.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lte/cost_model.hpp"
#include "lte/subframe.hpp"

namespace pran::core {

/// One stage of a programmable pipeline. A standard stage names the slice
/// of the pipeline's cost model it takes; a custom (programmed-in) stage
/// prices itself through `cost_fn`. Exactly one of the two is set.
struct StageSpec {
  std::string name;
  /// Custom stages: giga-operations this stage adds to one subframe.
  std::function<double(const lte::CellConfig&,
                       std::span<const lte::Allocation>)>
      cost_fn;
  /// Standard stages: the cost-model slice this stage stands for.
  std::optional<lte::Stage> slice = std::nullopt;
};

/// An ordered stage list with edit operations, priced against one cost
/// model. Value type; copies are independent (cells can run different
/// programs).
class Pipeline {
 public:
  /// The standard uplink receive pipeline: one stage per slice of `model`.
  /// Stage names match lte::stage_name: fft, chest, equalize, demod,
  /// decode, mac.
  static Pipeline standard_uplink(lte::CostModel model = lte::CostModel{});

  /// Appends a stage at the end.
  Pipeline& append(StageSpec stage);

  /// Inserts after the named stage; throws if absent.
  Pipeline& insert_after(const std::string& existing, StageSpec stage);

  /// Removes the named stage; throws if absent.
  Pipeline& remove(const std::string& name);

  bool contains(const std::string& name) const;
  std::vector<std::string> stage_names() const;
  std::size_t size() const noexcept { return stages_.size(); }

  /// The cost model the standard stages take their slices from.
  const lte::CostModel& model() const noexcept { return model_; }

  /// Total giga-operations of one subframe under this pipeline. Evaluates
  /// the cost model at most once.
  double subframe_gops(const lte::CellConfig& cell,
                       std::span<const lte::Allocation> allocs) const;

  /// Prices `job` under this pipeline. `job.cost` must already hold the
  /// model's full uplink cost of (cell, allocs), as SubframeFactory builds
  /// it: the slices of standard stages this pipeline removed are zeroed,
  /// and `job.extra_gops` becomes the sum of the custom stages.
  void price(const lte::CellConfig& cell,
             std::span<const lte::Allocation> allocs,
             lte::SubframeJob& job) const;

 private:
  void check_new(const StageSpec& stage) const;

  lte::CostModel model_;
  std::vector<StageSpec> stages_;
};

/// Library of optional stages an operator can program in.
namespace stages {

/// Successive interference cancellation: a second equalisation-and-demod
/// pass over the allocated PRBs (cost ~ antennas^2 * PRBs).
StageSpec interference_cancellation(double intensity = 1.0);

/// Coordinated multipoint combining across `cooperating_cells` neighbour
/// cells: extra per-PRB combining work proportional to the cluster size.
StageSpec comp_combining(int cooperating_cells);

/// Fine-grained uplink channel sounding for massive-MIMO-style CSI (cost ~
/// antennas * full band, independent of load).
StageSpec wideband_sounding();

}  // namespace stages

}  // namespace pran::core
