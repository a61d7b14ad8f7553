// Tests for the placement problem, MILP formulation and placers.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/placement.hpp"

namespace pran::core {
namespace {

cluster::ServerSpec server(double gops_per_tti_budget) {
  // One core whose per-TTI budget equals the requested value.
  return cluster::ServerSpec{"s", 1, gops_per_tti_budget * 1e3};
}

PlacementProblem small_problem() {
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 0.6, 1.0}, {1, 0.5, 1.0}, {2, 0.4, 1.0}, {3, 0.3, 1.0}};
  p.servers = {server(1.0), server(1.0), server(1.0), server(1.0)};
  return p;
}

TEST(PlacementProblem, LoadsAndFit) {
  const auto p = small_problem();
  const std::vector<int> ok{0, 1, 1, 0};     // 0.9 and 0.9
  const std::vector<int> bad{0, 0, 1, 1};    // 1.1 on server 0
  EXPECT_TRUE(placement_fits(p, ok));
  EXPECT_FALSE(placement_fits(p, bad));
  const auto loads = server_loads(p, ok);
  EXPECT_NEAR(loads[0], 0.9, 1e-12);
  EXPECT_NEAR(loads[1], 0.9, 1e-12);
  EXPECT_NEAR(loads[2], 0.0, 1e-12);
}

TEST(PlacementResult, ActiveServersAndMigrations) {
  PlacementResult r;
  r.server_of_cell = {0, 1, 1, 0};
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_EQ(r.migrations_from({0, 1, 0, 0}), 1);
  // Cells previously in outage (-1) do not count as migrations.
  EXPECT_EQ(r.migrations_from({-1, 1, 1, 0}), 0);
}

TEST(MilpPlacer, PacksMinimally) {
  const auto p = small_problem();  // total 1.8 -> 2 servers suffice
  MilpPlacer placer;
  const auto r = placer.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_TRUE(placement_fits(p, r.server_of_cell));
}

TEST(MilpPlacer, RespectsHeadroom) {
  auto p = small_problem();
  p.headroom = 0.7;  // budget 0.7 per server: 0.6+anything > 0.7
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 3);  // {0.6},{0.5},{0.4+0.3}
}

TEST(MilpPlacer, ReportsInfeasible) {
  PlacementProblem p;
  p.cells = {{0, 2.0, 2.0}};
  p.servers = {server(1.0)};
  const auto r = MilpPlacer{}.place(p);
  EXPECT_FALSE(r.feasible);
}

TEST(MilpPlacer, MigrationWeightPrefersStability) {
  auto p = small_problem();
  // Previous placement uses 2 servers in a specific pattern; an unweighted
  // optimum could permute servers freely. With migration cost, it must
  // keep the previous assignment (which is already optimal).
  p.previous = std::vector<int>{0, 1, 1, 0};
  p.migration_weight = 0.01;
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.migrations_from(*p.previous), 0);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(MilpPlacer, MigrationWeightDoesNotSacrificeServers) {
  // Previous placement wastes servers; migration weight is small enough
  // that consolidation still wins.
  auto p = small_problem();
  p.previous = std::vector<int>{0, 1, 2, 3};
  p.migration_weight = 0.01;
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(MilpPlacer, SymmetryRowsKeepPricedPreviousServer) {
  // Two identical servers, both cells last on server 1. Staying costs one
  // server and no migration; a y_0 >= y_1 row would force both cells onto
  // server 0 (two migrations) and still report it optimal.
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 0.1, 0.1}, {1, 0.1, 0.1}};
  p.servers = {server(1.0), server(1.0)};
  p.previous = std::vector<int>{1, 1};
  p.migration_weight = 0.01;
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.server_of_cell, (std::vector<int>{1, 1}));
  EXPECT_EQ(r.migrations_from(*p.previous), 0);
}

TEST(MilpPlacer, ClosesE10SizedInstanceInFewNodes) {
  // E10's 32-cell instance (uniform 0.1-0.5 demands on 18 unit servers):
  // the load cover plus the first-fit start leave nothing to branch on.
  Rng rng(532);
  PlacementProblem p;
  p.headroom = 0.85;
  for (int c = 0; c < 32; ++c) {
    const double demand = rng.uniform(0.1, 0.5);
    p.cells.push_back({c, demand, demand * 1.5});
  }
  p.servers.assign(18, server(1.0));
  lp::MilpOptions opts;
  opts.max_nodes = 8;
  const auto r = MilpPlacer{opts}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_LE(r.milp_nodes, 8);
  EXPECT_EQ(r.active_servers(), load_cover_servers(p));
  EXPECT_TRUE(placement_fits(p, r.server_of_cell));
}

TEST(FirstFitPlacer, ProducesFeasiblePacking) {
  const auto p = small_problem();
  FirstFitPlacer placer;
  const auto r = placer.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(placement_fits(p, r.server_of_cell));
  EXPECT_FALSE(r.proven_optimal);
  // FFD on this instance is actually optimal.
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(FirstFitPlacer, StickyKeepsPreviousHomes) {
  auto p = small_problem();
  p.previous = std::vector<int>{3, 2, 1, 0};  // spread out but feasible
  const auto sticky = FirstFitPlacer(true).place(p);
  ASSERT_TRUE(sticky.feasible);
  EXPECT_EQ(sticky.migrations_from(*p.previous), 0);

  const auto fresh = FirstFitPlacer(false).place(p);
  ASSERT_TRUE(fresh.feasible);
  // Non-sticky re-packs into fewer servers, migrating cells.
  EXPECT_LT(fresh.active_servers(), 4);
}

TEST(FirstFitPlacer, ReportsInfeasibleWhenOverloaded) {
  PlacementProblem p;
  p.cells = {{0, 0.9, 1.0}, {1, 0.9, 1.0}, {2, 0.9, 1.0}};
  p.servers = {server(1.0), server(1.0)};
  const auto r = FirstFitPlacer{}.place(p);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.server_of_cell.empty());
}

TEST(FirstFitPlacer, OpensSmallestFittingServer) {
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 0.4, 0.5}};
  p.servers = {server(2.0), server(0.5)};  // big first, small second
  const auto r = FirstFitPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.server_of_cell[0], 1);  // picks the small one
}

TEST(StaticPeakPlacer, BudgetsAtPeak) {
  PlacementProblem p;
  p.headroom = 1.0;
  // Sustained 0.3 each but peak 0.9: peak sizing fits one per server.
  p.cells = {{0, 0.3, 0.9}, {1, 0.3, 0.9}, {2, 0.3, 0.9}};
  p.servers = {server(1.0), server(1.0), server(1.0)};
  const auto r = StaticPeakPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 3);  // no pooling under peak provisioning

  // The pooled optimum uses one server — the gap is PRAN's pooling gain.
  const auto pooled = MilpPlacer{}.place(p);
  ASSERT_TRUE(pooled.feasible);
  EXPECT_EQ(pooled.active_servers(), 1);
}

TEST(StaticPeakPlacer, RejectsPeakBelowSustained) {
  PlacementProblem p;
  p.cells = {{0, 0.5, 0.2}};
  p.servers = {server(1.0)};
  EXPECT_THROW(StaticPeakPlacer{}.place(p), pran::ContractViolation);
}

TEST(BuildModel, ShapesMatchFormulation) {
  const auto p = small_problem();
  const auto model = build_placement_model(p);
  // 4 cells * 4 servers + 4 activations.
  EXPECT_EQ(model.num_variables(), 20);
  // 4 assignment + 4 capacity + 1 load-cover + 3 symmetry rows.
  EXPECT_EQ(model.num_constraints(), 12);
  EXPECT_EQ(model.num_integer_variables(), 20);
}

TEST(BuildModel, SymmetryRowsSkipServersThatHostedCells) {
  auto p = small_problem();
  p.previous = std::vector<int>{1, 1, 1, 1};
  // Unpriced, the previous placement leaves the servers interchangeable.
  EXPECT_EQ(build_placement_model(p).num_constraints(), 12);
  // Priced, server 1 is distinct: only the 2-3 pair keeps its row.
  p.migration_weight = 0.01;
  EXPECT_EQ(build_placement_model(p).num_constraints(), 10);
}

TEST(LoadCover, FewestServersLargestBudgetFirst) {
  PlacementProblem p;
  p.headroom = 1.0;
  p.servers = {server(1.0), server(0.5), server(2.0)};
  const auto with_demand = [&](std::vector<double> demands) {
    p.cells.clear();
    for (std::size_t c = 0; c < demands.size(); ++c)
      p.cells.push_back({static_cast<int>(c), demands[c], demands[c]});
    return load_cover_servers(p);
  };
  EXPECT_EQ(with_demand({0.0, 0.0}), 0);
  EXPECT_EQ(with_demand({0.3}), 1);
  EXPECT_EQ(with_demand({1.0, 1.0}), 1);   // exactly the 2.0 budget
  EXPECT_EQ(with_demand({1.0, 1.2}), 2);   // 2.0 + 1.0
  EXPECT_EQ(with_demand({1.5, 1.5}), 2);
  EXPECT_EQ(with_demand({1.5, 1.6}), 3);   // 2.0 + 1.0 + 0.5
  EXPECT_EQ(with_demand({1.8, 1.8}), 4);   // more than every server holds
  p.headroom = 0.5;                        // budgets 1.0, 0.5, 0.25
  EXPECT_EQ(with_demand({0.6, 0.6}), 2);
  EXPECT_EQ(with_demand({0.8, 0.8}), 3);
}

TEST(LoadCover, ModelRowUsesTheBound) {
  auto p = small_problem();  // demand 1.8 on unit budgets
  const auto model = build_placement_model(p);
  const auto& rows = model.constraints();
  const auto cover = std::find_if(rows.begin(), rows.end(), [](const auto& r) {
    return r.name == "cover";
  });
  ASSERT_NE(cover, rows.end());
  EXPECT_EQ(cover->constraint.relation, lp::Relation::kGreaterEqual);
  EXPECT_DOUBLE_EQ(cover->constraint.rhs, 2.0);
  EXPECT_EQ(cover->constraint.lhs.terms().size(), p.servers.size());
}

TEST(BuildModel, ValidatesInput) {
  PlacementProblem p;
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
  p = small_problem();
  p.headroom = 0.0;
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
  p = small_problem();
  p.previous = std::vector<int>{0};
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
}

/// Property: on random instances, FFD is feasible whenever the MILP is, and
/// never uses fewer servers than the proven optimum.
class PlacerComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacerComparison, HeuristicDominatedByOptimum) {
  Rng rng(GetParam() * 2654435761ULL + 1);
  PlacementProblem p;
  p.headroom = 0.9;
  const int cells = 4 + static_cast<int>(rng.uniform_int(0, 6));
  const int servers = 3 + static_cast<int>(rng.uniform_int(0, 3));
  for (int c = 0; c < cells; ++c) {
    const double demand = rng.uniform(0.05, 0.5);
    p.cells.push_back({c, demand, demand * rng.uniform(1.0, 2.0)});
  }
  for (int s = 0; s < servers; ++s) p.servers.push_back(server(1.0));

  const auto exact = MilpPlacer{}.place(p);
  const auto heur = FirstFitPlacer{}.place(p);

  if (exact.feasible) {
    ASSERT_TRUE(exact.proven_optimal) << "seed " << GetParam();
    if (heur.feasible) {
      EXPECT_GE(heur.active_servers(), exact.active_servers());
      EXPECT_TRUE(placement_fits(p, heur.server_of_cell));
      // FFD's classical guarantee (11/9 OPT + 1) with slack.
      EXPECT_LE(heur.active_servers(),
                (11 * exact.active_servers()) / 9 + 1);
    }
  } else {
    EXPECT_FALSE(heur.feasible) << "heuristic found a packing MILP missed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerComparison,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace pran::core
