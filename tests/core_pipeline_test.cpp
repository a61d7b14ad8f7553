// Tests for the programmable pipeline.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "core/pipeline.hpp"

namespace pran::core {
namespace {

const lte::CellConfig kCell{};
const std::vector<lte::Allocation> kAllocs{{50, 20, 6}, {25, 10, 4}};

/// A job whose cost is the model's full uplink cost, as SubframeFactory
/// builds it, priced under `p`.
lte::SubframeJob priced(const Pipeline& p) {
  lte::SubframeJob job;
  job.cost = p.model().subframe_cost(kCell, kAllocs, lte::Direction::kUplink);
  p.price(kCell, kAllocs, job);
  return job;
}

TEST(Pipeline, StandardMatchesCostModel) {
  lte::CostModel model;
  const auto pipeline = Pipeline::standard_uplink(model);
  EXPECT_EQ(pipeline.size(), lte::kStageCount);
  const lte::StageCost expected =
      model.subframe_cost(kCell, kAllocs, lte::Direction::kUplink);
  EXPECT_NEAR(pipeline.subframe_gops(kCell, kAllocs), expected.total(),
              1e-12);
  // Pricing the standard pipeline leaves the factory's cost untouched.
  const lte::SubframeJob job = priced(pipeline);
  EXPECT_EQ(job.cost.gops, expected.gops);
  EXPECT_EQ(job.extra_gops, 0.0);
}

TEST(Pipeline, StageNamesInOrder) {
  const auto p = Pipeline::standard_uplink();
  const auto names = p.stage_names();
  const std::vector<std::string> expected{"fft",   "chest",  "equalize",
                                          "demod", "decode", "mac"};
  EXPECT_EQ(names, expected);
}

TEST(Pipeline, AppendAddsCost) {
  auto p = Pipeline::standard_uplink();
  const double base = p.subframe_gops(kCell, kAllocs);
  p.append(stages::interference_cancellation());
  EXPECT_GT(p.subframe_gops(kCell, kAllocs), base);
  EXPECT_TRUE(p.contains("interference-cancellation"));
  const lte::SubframeJob job = priced(p);
  EXPECT_NEAR(job.extra_gops, p.subframe_gops(kCell, kAllocs) - base, 1e-12);
  EXPECT_NEAR(job.total_gops(), p.subframe_gops(kCell, kAllocs), 1e-12);
}

TEST(Pipeline, InsertAfterPlacesStage) {
  auto p = Pipeline::standard_uplink();
  p.insert_after("equalize", stages::interference_cancellation());
  const auto names = p.stage_names();
  ASSERT_EQ(names[3], "interference-cancellation");
  EXPECT_EQ(names[2], "equalize");
}

TEST(Pipeline, InsertAfterUnknownThrows) {
  auto p = Pipeline::standard_uplink();
  EXPECT_THROW(p.insert_after("nope", stages::wideband_sounding()),
               pran::ContractViolation);
}

TEST(Pipeline, RemoveDropsCost) {
  auto p = Pipeline::standard_uplink();
  const double base = p.subframe_gops(kCell, kAllocs);
  p.remove("decode");
  EXPECT_LT(p.subframe_gops(kCell, kAllocs), base);
  EXPECT_FALSE(p.contains("decode"));
  EXPECT_THROW(p.remove("decode"), pran::ContractViolation);
}

TEST(Pipeline, RejectsDuplicatesAndInvalidStages) {
  auto p = Pipeline::standard_uplink();
  EXPECT_THROW(p.append(stages::interference_cancellation());
               p.append(stages::interference_cancellation()),
               pran::ContractViolation);
  EXPECT_THROW(p.append(StageSpec{"", [](auto&, auto) { return 0.0; }}),
               pran::ContractViolation);
  EXPECT_THROW(p.append(StageSpec{"x", nullptr}), pran::ContractViolation);
  // A stage is either a model slice or a custom cost, never both, and each
  // slice is priced at most once.
  EXPECT_THROW(p.append(StageSpec{"y", [](auto&, auto) { return 0.0; },
                                  lte::Stage::kFft}),
               pran::ContractViolation);
  EXPECT_THROW(p.append(StageSpec{"fft-again", nullptr, lte::Stage::kFft}),
               pran::ContractViolation);
}

TEST(Pipeline, CopiesAreIndependent) {
  auto a = Pipeline::standard_uplink();
  auto b = a;
  b.append(stages::wideband_sounding());
  EXPECT_FALSE(a.contains("wideband-sounding"));
  EXPECT_TRUE(b.contains("wideband-sounding"));
}

TEST(Stages, InterferenceCancellationScalesWithPrbs) {
  const auto stage = stages::interference_cancellation();
  const std::vector<lte::Allocation> small{{10, 10, 4}};
  const std::vector<lte::Allocation> large{{100, 10, 4}};
  EXPECT_NEAR(stage.cost_fn(kCell, large) / stage.cost_fn(kCell, small), 10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(stage.cost_fn(kCell, {}), 0.0);
}

TEST(Stages, CompScalesWithClusterSize) {
  const auto two = stages::comp_combining(2);
  const auto four = stages::comp_combining(4);
  EXPECT_NEAR(four.cost_fn(kCell, kAllocs) / two.cost_fn(kCell, kAllocs), 2.0,
              1e-9);
  EXPECT_THROW(stages::comp_combining(1), pran::ContractViolation);
}

TEST(Stages, SoundingIsLoadIndependent) {
  const auto stage = stages::wideband_sounding();
  EXPECT_DOUBLE_EQ(stage.cost_fn(kCell, kAllocs), stage.cost_fn(kCell, {}));
  EXPECT_GT(stage.cost_fn(kCell, {}), 0.0);
}

TEST(Pipeline, PriceZeroesRemovedStages) {
  auto p = Pipeline::standard_uplink();
  p.remove("decode");  // cheaper than the factory's full cost
  const lte::StageCost full =
      lte::CostModel{}.subframe_cost(kCell, kAllocs, lte::Direction::kUplink);
  const lte::SubframeJob job = priced(p);
  EXPECT_EQ(job.cost[lte::Stage::kDecode], 0.0);
  EXPECT_EQ(job.cost[lte::Stage::kFft], full[lte::Stage::kFft]);
  EXPECT_EQ(job.extra_gops, 0.0);  // never negative
  EXPECT_NEAR(job.total_gops(), p.subframe_gops(kCell, kAllocs), 1e-12);
  EXPECT_LT(job.total_gops(), full.total());
}

}  // namespace
}  // namespace pran::core
