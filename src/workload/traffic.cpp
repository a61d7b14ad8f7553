#include "workload/traffic.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"

namespace pran::workload {

const std::vector<ServiceClass>& default_service_mix() {
  static const std::vector<ServiceClass> mix = {
      {"heavy", units::BitRate{20e6}, 0.25},
      {"medium", units::BitRate{5e6}, 0.25},
      {"light", units::BitRate{1e6}, 0.50},
  };
  return mix;
}

namespace {

/// Decoder iterations grow with code rate: near-capacity blocks take more
/// passes before the CRC checks out.
int sample_turbo_iterations(double code_rate, Rng& rng) {
  const double mean = 3.0 + 4.0 * code_rate;  // 3.3 .. 6.7
  const int draw = static_cast<int>(std::lround(rng.normal(mean, 0.8)));
  return std::clamp(draw, lte::kMinTurboIterations, lte::kMaxTurboIterations);
}

/// A CQI's MCS, code rate and per-PRB rate: functions of the constant
/// MCS/CQI tables only, so one table serves every model.
struct CqiLink {
  int mcs = 0;
  double code_rate = 0.0;
  units::BitRate prb_rate{0.0};
};

const CqiLink& cqi_link(int cqi) {
  static const std::array<CqiLink, 16> table = [] {
    std::array<CqiLink, 16> t{};
    for (int c = 1; c <= 15; ++c) {
      const int mcs = lte::mcs_from_cqi(c);
      t[static_cast<std::size_t>(c)] =
          CqiLink{mcs, lte::mcs(mcs).code_rate, lte::prb_rate_bps(mcs)};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(cqi)];
}

/// lte::prbs_for_rate with the per-PRB rate already looked up: the same
/// arithmetic, so the same count.
int prbs_for(units::BitRate rate, units::BitRate per_prb) {
  if (rate == units::BitRate{0.0}) return 0;
  return static_cast<int>(std::ceil(rate / per_prb));
}

}  // namespace

TrafficModel::TrafficModel(CellSite site, DiurnalProfile profile,
                           lte::CostModel cost, std::uint64_t seed,
                           std::vector<ServiceClass> mix)
    : site_(site),
      profile_(profile),
      cost_(cost),
      mix_(std::move(mix)),
      rng_(seed) {
  PRAN_REQUIRE(!mix_.empty(), "service mix must be non-empty");
  PRAN_REQUIRE(site_.peak_prb_utilization > 0.0 &&
                   site_.peak_prb_utilization <= 1.0,
               "peak utilization outside (0, 1]");
  PRAN_REQUIRE(site_.radius_m > site_.min_distance_m,
               "cell radius must exceed the minimum UE distance");
  for (const auto& c : mix_) {
    PRAN_REQUIRE(c.rate_bps >= units::BitRate{0.0},
                 "service rate must be non-negative");
    weight_total_ += c.weight;
  }
  const lte::LinkBudget budget;
  noise_dbm_ = lte::noise_power_dbm(budget.bandwidth_per_prb_hz,
                                    budget.noise_figure_db);

  // Calibrate mean PRBs per UE by Monte Carlo so that the Poisson arrival
  // intensity can be set to hit the configured peak PRB utilisation.
  Rng calib(seed ^ 0x5ca1ab1eULL);
  double total = 0.0;
  constexpr int kCalibrationDraws = 512;
  for (int i = 0; i < kCalibrationDraws; ++i) {
    const std::size_t chosen = pick_service_class(calib);
    const double d = std::sqrt(calib.uniform()) * site_.radius_m;
    const double dist = std::max(d, site_.min_distance_m);
    total += ue_link(std::max(1, cqi_at(dist)), chosen).prbs;
  }
  mean_prbs_per_ue_ = total / kCalibrationDraws;
  PRAN_CHECK(mean_prbs_per_ue_ > 0.0, "calibration produced zero PRBs/UE");
}

TrafficModel::UeLink TrafficModel::ue_link(int cqi,
                                           std::size_t service_class) const {
  PRAN_REQUIRE(cqi >= 1 && cqi <= 15, "CQI index outside 1..15");
  PRAN_REQUIRE(service_class < mix_.size(), "unknown service class");
  const CqiLink& link = cqi_link(cqi);
  return UeLink{link.mcs, link.code_rate,
                prbs_for(mix_[service_class].rate_bps, link.prb_rate)};
}

std::size_t TrafficModel::pick_service_class(Rng& rng) const {
  double pick = rng.uniform() * weight_total_;
  for (std::size_t k = 0; k < mix_.size(); ++k) {
    pick -= mix_[k].weight;
    if (pick < 0.0) return k;
  }
  return mix_.size() - 1;
}

int TrafficModel::cqi_at(double meters) const {
  const lte::LinkBudget budget;
  const units::Db snr =
      budget.tx_power_dbm - lte::pathloss_db(meters) - noise_dbm_;
  return lte::cqi_from_efficiency(lte::spectral_efficiency(snr, budget));
}

double TrafficModel::expected_utilization(double hour) const {
  return site_.peak_prb_utilization * profile_.at(hour);
}

void TrafficModel::sample_with(double hour, Rng& rng,
                               std::vector<lte::Allocation>& out) const {
  const double target_prbs =
      expected_utilization(hour) * static_cast<double>(site_.config.n_prb);
  const double lambda = target_prbs / mean_prbs_per_ue_;
  const std::uint32_t ue_count = rng.poisson(lambda);

  out.clear();
  out.reserve(ue_count);
  int prbs_left = site_.config.n_prb;
  for (std::uint32_t u = 0; u < ue_count && prbs_left > 0; ++u) {
    const std::size_t chosen = pick_service_class(rng);
    // Uniform position in the disc (sqrt for area uniformity).
    const double dist = std::max(std::sqrt(rng.uniform()) * site_.radius_m,
                                 site_.min_distance_m);
    const int cqi = cqi_at(dist);
    if (cqi == 0) continue;  // out of coverage this TTI
    const CqiLink& link = cqi_link(cqi);
    const int prbs =
        std::min(prbs_for(mix_[chosen].rate_bps, link.prb_rate), prbs_left);
    if (prbs == 0) continue;
    out.push_back(lte::Allocation{
        prbs, link.mcs, sample_turbo_iterations(link.code_rate, rng)});
    prbs_left -= prbs;
  }
}

std::vector<lte::Allocation> TrafficModel::sample_subframe(double hour) {
  std::vector<lte::Allocation> allocs;
  sample_with(hour, rng_, allocs);
  return allocs;
}

void TrafficModel::sample_subframe(double hour,
                                   std::vector<lte::Allocation>& out) {
  sample_with(hour, rng_, out);
}

double TrafficModel::expected_subframe_gops(double hour, int samples) const {
  PRAN_REQUIRE(samples >= 1, "need at least one sample");
  Rng scratch(rng_);  // copy: do not disturb the model's own stream
  double total = 0.0;
  std::vector<lte::Allocation> allocs;
  for (int i = 0; i < samples; ++i) {
    sample_with(hour, scratch, allocs);
    total +=
        cost_.subframe_cost(site_.config, allocs, lte::Direction::kUplink)
            .total();
  }
  return total / static_cast<double>(samples);
}

double TrafficModel::peak_subframe_gops() const {
  return cost_.peak_cost(site_.config, lte::Direction::kUplink).total();
}

Fleet make_fleet(int num_cells, std::uint64_t seed, lte::CellConfig config,
                 double peak_prb_utilization, double profile_jitter_sigma) {
  PRAN_REQUIRE(num_cells >= 1, "fleet needs at least one cell");
  Fleet fleet;
  fleet.cells.reserve(static_cast<std::size_t>(num_cells));
  Rng rng(seed);
  const SiteKind kinds[] = {SiteKind::kOffice, SiteKind::kResidential,
                            SiteKind::kMixed, SiteKind::kTransport};
  for (int c = 0; c < num_cells; ++c) {
    CellSite site;
    site.cell_id = c;
    site.config = config;
    site.kind = kinds[static_cast<std::size_t>(c) % 4];
    site.peak_prb_utilization = peak_prb_utilization;
    DiurnalProfile profile =
        DiurnalProfile::canonical(site.kind).jittered(rng, profile_jitter_sigma);
    fleet.cells.emplace_back(site, profile, lte::CostModel{}, rng.fork()());
  }
  return fleet;
}

}  // namespace pran::workload
