// TrafficModel tables the per-UE link chain (CQI -> MCS -> code rate ->
// PRBs) once per model. These tests pin the tables to the lte:: functions
// and the sampler to a reference that runs the whole chain per UE, so every
// sample stays bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "lte/link.hpp"
#include "lte/mcs.hpp"
#include "workload/traffic.hpp"

namespace pran::workload {
namespace {

/// The sampler computed per UE through the lte:: chain: pathloss, SNR,
/// efficiency, CQI, then mcs_from_cqi, prbs_for_rate and mcs().code_rate.
/// Same draws in the same order as TrafficModel, same calibration.
class ReferenceSampler {
 public:
  ReferenceSampler(const CellSite& site, const DiurnalProfile& profile,
                   std::uint64_t seed, std::vector<ServiceClass> mix)
      : site_(site), profile_(profile), mix_(std::move(mix)), rng_(seed) {
    Rng calib(seed ^ 0x5ca1ab1eULL);
    double total = 0.0;
    for (int i = 0; i < 512; ++i) {
      const ServiceClass& chosen = pick(calib);
      const double d = std::sqrt(calib.uniform()) * site_.radius_m;
      const double dist = std::max(d, site_.min_distance_m);
      const int mcs =
          lte::mcs_from_cqi(std::max(1, lte::cqi_at_distance(dist)));
      total += lte::prbs_for_rate(chosen.rate_bps, mcs).count();
    }
    mean_prbs_per_ue_ = total / 512;
  }

  std::vector<lte::Allocation> sample(double hour) {
    const double target_prbs = site_.peak_prb_utilization * profile_.at(hour) *
                               static_cast<double>(site_.config.n_prb);
    const std::uint32_t ue_count = rng_.poisson(target_prbs /
                                                mean_prbs_per_ue_);
    std::vector<lte::Allocation> allocs;
    int prbs_left = site_.config.n_prb;
    for (std::uint32_t u = 0; u < ue_count && prbs_left > 0; ++u) {
      const ServiceClass& chosen = pick(rng_);
      const double dist = std::max(std::sqrt(rng_.uniform()) * site_.radius_m,
                                   site_.min_distance_m);
      const int cqi = lte::cqi_at_distance(dist);
      if (cqi == 0) continue;
      const int mcs = lte::mcs_from_cqi(cqi);
      const int prbs = std::min(
          lte::prbs_for_rate(chosen.rate_bps, mcs).count(), prbs_left);
      if (prbs == 0) continue;
      const double rate = lte::mcs(mcs).code_rate;
      const double mean = 3.0 + 4.0 * rate;
      const int draw = static_cast<int>(std::lround(rng_.normal(mean, 0.8)));
      allocs.push_back(lte::Allocation{
          prbs, mcs,
          std::clamp(draw, lte::kMinTurboIterations,
                     lte::kMaxTurboIterations)});
      prbs_left -= prbs;
    }
    return allocs;
  }

 private:
  const ServiceClass& pick(Rng& rng) const {
    double weight_total = 0.0;
    for (const auto& c : mix_) weight_total += c.weight;
    double pick = rng.uniform() * weight_total;
    for (const auto& c : mix_) {
      pick -= c.weight;
      if (pick < 0.0) return c;
    }
    return mix_.back();
  }

  CellSite site_;
  DiurnalProfile profile_;
  std::vector<ServiceClass> mix_;
  double mean_prbs_per_ue_ = 0.0;
  Rng rng_;
};

/// The default mix plus a zero-rate class (needs no PRBs) and a class whose
/// demand exceeds the whole carrier.
std::vector<ServiceClass> edge_mix() {
  return {{"video", units::BitRate{20e6}, 0.3},
          {"idle", units::BitRate{0.0}, 0.2},
          {"bulk", units::BitRate{600e6}, 0.1},
          {"iot", units::BitRate{0.2e6}, 0.4}};
}

TEST(TrafficTable, MatchesLinkChainForEveryCqiAndClass) {
  for (const auto& mix : {default_service_mix(), edge_mix()}) {
    const TrafficModel model(CellSite{}, DiurnalProfile::flat(1.0),
                             lte::CostModel{}, 5, mix);
    for (int cqi = 1; cqi <= 15; ++cqi) {
      for (std::size_t k = 0; k < mix.size(); ++k) {
        const auto& link = model.ue_link(cqi, k);
        const int mcs = lte::mcs_from_cqi(cqi);
        EXPECT_EQ(link.mcs, mcs) << "CQI " << cqi << " class " << k;
        EXPECT_EQ(link.code_rate, lte::mcs(mcs).code_rate);
        EXPECT_EQ(link.prbs, lte::prbs_for_rate(mix[k].rate_bps, mcs).count());
      }
    }
    EXPECT_THROW(model.ue_link(0, 0), pran::ContractViolation);
    EXPECT_THROW(model.ue_link(1, mix.size()), pran::ContractViolation);
  }
}

TEST(TrafficTable, SamplesMatchReferenceBitForBit) {
  struct Case {
    double radius_m;  ///< 2.5 km reaches past coverage: CQI 0 UEs occur.
    std::vector<ServiceClass> mix;
  };
  const std::vector<Case> cases = {{800.0, default_service_mix()},
                                   {2500.0, default_service_mix()},
                                   {1200.0, edge_mix()}};
  const double hours[] = {3.0, 8.5, 12.0, 19.25, 23.9};
  std::size_t draws = 0, ues = 0;
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 977ULL}) {
      CellSite site;
      site.radius_m = c.radius_m;
      site.kind = SiteKind::kOffice;
      const auto profile = DiurnalProfile::canonical(site.kind);
      TrafficModel model(site, profile, lte::CostModel{}, seed, c.mix);
      ReferenceSampler reference(site, profile, seed, c.mix);
      for (int i = 0; i < 1200; ++i) {
        const double hour = hours[i % 5];
        const auto got = model.sample_subframe(hour);
        const auto want = reference.sample(hour);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " draw " << i;
        for (std::size_t u = 0; u < got.size(); ++u) {
          ASSERT_EQ(got[u].n_prb, want[u].n_prb);
          ASSERT_EQ(got[u].mcs, want[u].mcs);
          ASSERT_EQ(got[u].turbo_iterations, want[u].turbo_iterations);
        }
        ++draws;
        ues += got.size();
      }
    }
  }
  EXPECT_GE(draws, 10000u);
  EXPECT_GT(ues, 5000u);  // the draws are not mostly empty subframes
}

}  // namespace
}  // namespace pran::workload
