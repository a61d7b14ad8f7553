#pragma once

/// \file traffic.hpp
/// Per-cell traffic model: turns a diurnal profile into concrete per-TTI
/// uplink allocations (UE count, per-UE PRBs and MCS) and into the expected
/// processing load the controller plans against.
///
/// UEs arrive per TTI as a Poisson process whose intensity tracks the
/// diurnal profile; each UE draws a service class (heavy / medium / light,
/// a 25/25/50 mix of rate demands), a random position that fixes its
/// CQI/MCS through the link model, and a decoder-iteration count that grows
/// with the code rate.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lte/cost_model.hpp"
#include "lte/link.hpp"
#include "workload/diurnal.hpp"

namespace pran::workload {

/// A service class: demanded rate plus mix weight.
struct ServiceClass {
  const char* name;
  units::BitRate rate_bps;
  double weight;
};

/// Default 25/25/50 heavy/medium/light mix (20 / 5 / 1 Mb/s).
const std::vector<ServiceClass>& default_service_mix();

/// Static description of one cell site.
struct CellSite {
  int cell_id = 0;
  lte::CellConfig config;
  SiteKind kind = SiteKind::kMixed;
  double peak_prb_utilization = 0.85;  ///< Fraction of PRBs busy at peak.
  double radius_m = 800.0;             ///< UE placement radius.
  double min_distance_m = 30.0;
};

/// Samples subframes for one cell. Deterministic given the seed.
class TrafficModel {
 public:
  TrafficModel(CellSite site, DiurnalProfile profile, lte::CostModel cost,
               std::uint64_t seed,
               std::vector<ServiceClass> mix = default_service_mix());

  const CellSite& site() const noexcept { return site_; }
  const DiurnalProfile& profile() const noexcept { return profile_; }

  /// Expected fraction of this cell's PRBs in use at `hour`.
  double expected_utilization(double hour) const;

  /// Draws the uplink allocations for one TTI at `hour`. Total PRBs never
  /// exceed the cell's bandwidth (excess arrivals are clipped, as a real
  /// scheduler would defer them).
  std::vector<lte::Allocation> sample_subframe(double hour);

  /// The same draw written into `out` (cleared first), so a caller that
  /// keeps one buffer samples without allocating once it is warm.
  void sample_subframe(double hour, std::vector<lte::Allocation>& out);

  /// Expected giga-operations of one uplink subframe at `hour`, estimated
  /// by averaging `samples` draws from a throwaway generator (does not
  /// perturb this model's stream).
  double expected_subframe_gops(double hour, int samples = 64) const;

  /// Worst-case (all PRBs at top MCS) subframe cost, for peak provisioning.
  double peak_subframe_gops() const;

  /// What a UE of one service class gets at one CQI: the MCS
  /// (lte::mcs_from_cqi), its code rate (lte::mcs().code_rate) and the PRBs
  /// its rate needs (lte::prbs_for_rate), from a per-CQI table built once
  /// and shared by every model.
  struct UeLink {
    int mcs = 0;
    double code_rate = 0.0;
    int prbs = 0;
  };
  /// The link of a UE of the mix's `service_class` index at `cqi` (1..15).
  UeLink ue_link(int cqi, std::size_t service_class) const;

 private:
  /// Draws a service class by weight (one uniform draw); returns its index.
  std::size_t pick_service_class(Rng& rng) const;
  /// CQI (0..15) of a UE `meters` from the site, as lte::cqi_at_distance
  /// computes it under the default link budget, with the noise power
  /// hoisted out of the per-UE path.
  int cqi_at(double meters) const;
  /// Draws one subframe's allocations from `rng` into `out`.
  void sample_with(double hour, Rng& rng,
                   std::vector<lte::Allocation>& out) const;

  CellSite site_;
  DiurnalProfile profile_;
  lte::CostModel cost_;
  std::vector<ServiceClass> mix_;
  double weight_total_ = 0.0;  ///< Sum of the mix's weights.
  units::Db noise_dbm_{0.0};   ///< Per-PRB noise power, default budget.
  double mean_prbs_per_ue_ = 0.0;  ///< Calibrated at construction.
  Rng rng_;
};

/// Builds a fleet of heterogeneous cell sites: site kinds are assigned
/// round-robin over {office, residential, mixed, transport} and each cell's
/// profile is jittered so no two cells are identical.
struct Fleet {
  std::vector<TrafficModel> cells;
};
Fleet make_fleet(int num_cells, std::uint64_t seed,
                 lte::CellConfig config = {},
                 double peak_prb_utilization = 0.85,
                 double profile_jitter_sigma = 0.15);

}  // namespace pran::workload
