// Tests for MCS/CQI tables and transport-block sizing.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lte/mcs.hpp"

namespace pran::lte {
namespace {

TEST(McsTable, HasTwentyNineMonotoneEntries) {
  const auto& table = mcs_table();
  ASSERT_EQ(table.size(), 29u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].index, static_cast<int>(i));
    EXPECT_GT(table[i].code_rate, 0.0);
    EXPECT_LT(table[i].code_rate, 1.0);
    // The real 36.213 ladder dips slightly where the modulation switches
    // (e.g. MCS 16 -> 17); require near-monotonicity, and strict growth
    // within a modulation.
    if (i > 0) {
      EXPECT_GT(table[i].spectral_eff, table[i - 1].spectral_eff * 0.99)
          << "MCS " << i;
      if (table[i].mod == table[i - 1].mod) {
        EXPECT_GT(table[i].spectral_eff, table[i - 1].spectral_eff)
            << "MCS " << i;
      }
    }
  }
}

TEST(McsTable, ModulationProgression) {
  EXPECT_EQ(mcs(0).mod, Modulation::kQpsk);
  EXPECT_EQ(mcs(9).mod, Modulation::kQpsk);
  EXPECT_EQ(mcs(10).mod, Modulation::kQam16);
  EXPECT_EQ(mcs(16).mod, Modulation::kQam16);
  EXPECT_EQ(mcs(17).mod, Modulation::kQam64);
  EXPECT_EQ(mcs(28).mod, Modulation::kQam64);
}

TEST(McsTable, RejectsOutOfRange) {
  EXPECT_THROW(mcs(-1), ContractViolation);
  EXPECT_THROW(mcs(29), ContractViolation);
}

TEST(CqiTable, MatchesSpecEfficiencies) {
  ASSERT_EQ(cqi_table().size(), 15u);
  EXPECT_NEAR(cqi(1).spectral_eff, 0.1523, 1e-4);
  EXPECT_NEAR(cqi(7).spectral_eff, 1.4766, 1e-4);
  EXPECT_NEAR(cqi(15).spectral_eff, 5.5547, 1e-4);
  for (int i = 2; i <= 15; ++i)
    EXPECT_GT(cqi(i).spectral_eff, cqi(i - 1).spectral_eff);
}

TEST(CqiTable, RejectsOutOfRange) {
  EXPECT_THROW(cqi(0), ContractViolation);
  EXPECT_THROW(cqi(16), ContractViolation);
}

TEST(CqiFromEfficiency, PicksHighestSupportable) {
  EXPECT_EQ(cqi_from_efficiency(0.0), 0);
  EXPECT_EQ(cqi_from_efficiency(0.16), 1);
  EXPECT_EQ(cqi_from_efficiency(5.5547), 15);
  EXPECT_EQ(cqi_from_efficiency(100.0), 15);
  // Just below CQI-10's efficiency picks CQI 9.
  EXPECT_EQ(cqi_from_efficiency(cqi(10).spectral_eff - 1e-6), 9);
}

TEST(McsFromCqi, IsMonotoneAndBounded) {
  int prev = 0;
  for (int q = 0; q <= 15; ++q) {
    const int m = mcs_from_cqi(q);
    EXPECT_GE(m, 0);
    EXPECT_LE(m, 28);
    EXPECT_GE(m, prev) << "CQI " << q;
    prev = m;
    // Chosen MCS must not exceed the CQI's efficiency — except at the very
    // bottom, where even MCS 0 is above CQI 1 and the most robust MCS is
    // used regardless.
    if (q >= 1 && m > 0) {
      EXPECT_LE(mcs(m).spectral_eff, cqi(q).spectral_eff + 1e-3);
    }
  }
  EXPECT_EQ(mcs_from_cqi(15), 28);
}

TEST(McsFromCqi, LookupMatchesTableScan) {
  // The lookup table must hold what scanning the MCS table gives: the
  // highest MCS whose efficiency is within 1e-3 of the CQI's.
  EXPECT_EQ(mcs_from_cqi(0), 0);
  for (int q = 1; q <= 15; ++q) {
    int best = 0;
    for (const auto& entry : mcs_table())
      if (entry.spectral_eff <= cqi(q).spectral_eff + 1e-3) best = entry.index;
    EXPECT_EQ(mcs_from_cqi(q), best) << "CQI " << q;
  }
  EXPECT_THROW(mcs_from_cqi(-1), pran::ContractViolation);
  EXPECT_THROW(mcs_from_cqi(16), pran::ContractViolation);
}

TEST(TransportBlock, ScalesWithPrbsAndMcs) {
  using units::PrbCount;
  EXPECT_EQ(transport_block_bits(0, PrbCount{0}).count(), 0);
  const auto one = transport_block_bits(10, PrbCount{1}).count();
  const auto fifty = transport_block_bits(10, PrbCount{50}).count();
  EXPECT_GT(one, 0);
  // Near-linear in PRBs (byte flooring allows small deviation).
  EXPECT_NEAR(static_cast<double>(fifty), static_cast<double>(one * 50),
              8 * 50);
  // Near-monotone in MCS (tiny dips at modulation switches are authentic).
  for (int m = 1; m <= 28; ++m)
    EXPECT_GE(
        static_cast<double>(transport_block_bits(m, PrbCount{25}).count()),
        0.99 *
            static_cast<double>(
                transport_block_bits(m - 1, PrbCount{25}).count()));
}

TEST(TransportBlock, FullBandAtTopMcs) {
  // 100 PRBs at MCS 28: ~5.55 bits/RE * 140 RE * 100 ≈ 77.7 kbit.
  const auto bits = transport_block_bits(28, units::PrbCount{100}).count();
  EXPECT_GT(bits, 75000);
  EXPECT_LT(bits, 80000);
  EXPECT_EQ(bits % 8, 0);
}

TEST(TransportBlock, RejectsNegativePrbs) {
  EXPECT_THROW(transport_block_bits(5, units::PrbCount{-1}),
               ContractViolation);
}

TEST(CodeBlocks, SegmentationAtTurboLimit) {
  EXPECT_EQ(code_block_count(units::Bits{0}), 0);
  EXPECT_EQ(code_block_count(units::Bits{1}), 1);
  EXPECT_EQ(code_block_count(units::Bits{6144}), 1);
  EXPECT_EQ(code_block_count(units::Bits{6145}), 2);
  EXPECT_EQ(code_block_count(units::Bits{3 * 6144 + 1}), 4);
}

TEST(BitsPerSymbol, MatchesConstellation) {
  EXPECT_EQ(bits_per_symbol(Modulation::kQpsk), 2);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam16), 4);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam64), 6);
}

}  // namespace
}  // namespace pran::lte
