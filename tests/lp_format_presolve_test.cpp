// Tests for the LP-format exporter and the presolve pass.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "lp/branch_and_bound.hpp"
#include "lp/lp_format.hpp"
#include "lp/presolve.hpp"

namespace pran::lp {
namespace {

Model sample_model() {
  Model m;
  const auto x = m.add_binary("x_c0 s1");  // space must be sanitised
  const auto y = m.add_integer("y", 0, 7);
  const auto z = m.add_continuous("z", 1.0, kInfinity);
  m.add_constraint("cap", 2.0 * LinearExpr(x) + 3.0 * LinearExpr(y) -
                              LinearExpr(z) <=
                          10.0);
  m.add_constraint("eq", LinearExpr(y) + LinearExpr(z) == 5.0);
  m.set_objective(Sense::kMaximize,
                  4.0 * LinearExpr(x) + LinearExpr(y) - 0.5 * LinearExpr(z));
  return m;
}

TEST(LpFormat, ContainsAllSections) {
  const auto exported = write_lp_format(sample_model());
  const std::string& text = exported.text;
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("Bounds"), std::string::npos);
  EXPECT_NE(text.find("Generals"), std::string::npos);
  EXPECT_NE(text.find("Binaries"), std::string::npos);
  EXPECT_NE(text.find("End"), std::string::npos);
}

TEST(LpFormat, SanitisesNamesAndMapsBack) {
  const auto exported = write_lp_format(sample_model());
  EXPECT_EQ(exported.text.find("x_c0 s1"), std::string::npos);
  EXPECT_NE(exported.text.find("x_c0_s1"), std::string::npos);
  ASSERT_EQ(exported.name_to_index.size(), 3u);
  EXPECT_EQ(exported.name_to_index.at("x_c0_s1"), 0);
  EXPECT_EQ(exported.name_to_index.at("y"), 1);
}

TEST(LpFormat, EmitsRelationsAndCoefficients) {
  const auto exported = write_lp_format(sample_model());
  EXPECT_NE(exported.text.find("<= 10"), std::string::npos);
  EXPECT_NE(exported.text.find("= 5"), std::string::npos);
  EXPECT_NE(exported.text.find("2 x_c0_s1"), std::string::npos);
  EXPECT_NE(exported.text.find("- z"), std::string::npos);
}

TEST(LpFormat, InfiniteUpperBoundOmitted) {
  const auto exported = write_lp_format(sample_model());
  // z has no finite upper bound: its Bounds line ends at the name.
  EXPECT_NE(exported.text.find("1 <= z\n"), std::string::npos);
}

TEST(Presolve, FixesEqualBoundVariables) {
  Model m;
  const auto x = m.add_continuous("x", 3.0, 3.0);  // fixed
  const auto y = m.add_continuous("y", 0.0, 10.0);
  m.add_constraint("c", LinearExpr(x) + LinearExpr(y) <= 8.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(y));

  const auto result = presolve(m);
  ASSERT_FALSE(result.infeasible);
  EXPECT_EQ(result.fixed_variables, 1);
  EXPECT_EQ(result.model->num_variables(), 1);

  // The reduced constraint is y <= 5 — solve and restore.
  const auto milp = MilpSolver{}.solve(*result.model);
  ASSERT_EQ(milp.status, MilpStatus::kOptimal);
  const auto full = result.restore(milp.x);
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[0], 3.0);
  EXPECT_DOUBLE_EQ(full[1], 5.0);
  EXPECT_TRUE(m.is_feasible(full));
}

TEST(Presolve, RoundsIntegerBoundsInward) {
  Model m;
  (void)m.add_integer("i", 0.4, 3.6);
  m.set_objective(Sense::kMaximize, LinearExpr(Variable{0}));
  const auto result = presolve(m);
  ASSERT_FALSE(result.infeasible);
  const auto& v = result.model->variables()[0];
  EXPECT_DOUBLE_EQ(v.lower, 1.0);
  EXPECT_DOUBLE_EQ(v.upper, 3.0);
  EXPECT_GT(result.tightened_bounds, 0);
}

TEST(Presolve, DetectsIntegerInfeasibility) {
  Model m;
  (void)m.add_integer("i", 0.4, 0.6);  // no integer point
  m.set_objective(Sense::kMinimize, LinearExpr(Variable{0}));
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, SingletonRowsBecomeBounds) {
  Model m;
  const auto x = m.add_continuous("x", 0.0, 100.0);
  m.add_constraint("ub", 2.0 * LinearExpr(x) <= 10.0);
  m.add_constraint("lb", LinearExpr(x) >= 2.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  const auto result = presolve(m);
  ASSERT_FALSE(result.infeasible);
  EXPECT_EQ(result.model->num_constraints(), 0);
  EXPECT_EQ(result.dropped_constraints, 2);
  const auto& v = result.model->variables()[0];
  EXPECT_DOUBLE_EQ(v.lower, 2.0);
  EXPECT_DOUBLE_EQ(v.upper, 5.0);
}

TEST(Presolve, DropsRedundantRowsAndDetectsImpossible) {
  Model m;
  const auto x = m.add_binary("x");
  const auto y = m.add_binary("y");
  m.add_constraint("redundant", LinearExpr(x) + LinearExpr(y) <= 5.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  const auto ok = presolve(m);
  EXPECT_EQ(ok.model->num_constraints(), 0);
  EXPECT_EQ(ok.dropped_constraints, 1);

  Model bad;
  const auto a = bad.add_binary("a");
  const auto b = bad.add_binary("b");
  bad.add_constraint("impossible", LinearExpr(a) + LinearExpr(b) >= 3.0);
  bad.set_objective(Sense::kMaximize, LinearExpr(a));
  EXPECT_TRUE(presolve(bad).infeasible);
}

TEST(Presolve, AllFixedModelStillSolvable) {
  Model m;
  (void)m.add_continuous("x", 2.0, 2.0);
  m.set_objective(Sense::kMinimize, LinearExpr(Variable{0}));
  const auto result = presolve(m);
  ASSERT_FALSE(result.infeasible);
  const auto milp = MilpSolver{}.solve(*result.model);
  ASSERT_TRUE(milp.has_solution());
  const auto full = result.restore(milp.x);
  EXPECT_DOUBLE_EQ(full[0], 2.0);
}

/// Property: presolve + solve == solve, on random binary instances.
class PresolveEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PresolveEquivalence, ObjectiveUnchanged) {
  Rng rng(GetParam() * 977 + 5);
  Model m;
  std::vector<Variable> vars;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    // Mix of free binaries and pre-fixed ones.
    if (rng.bernoulli(0.3)) {
      const double v = rng.bernoulli(0.5) ? 1.0 : 0.0;
      std::string name = "f";
      name += std::to_string(i);
      vars.push_back(m.add_variable(name, v, v, VarType::kContinuous));
    } else {
      std::string name = "b";
      name += std::to_string(i);
      vars.push_back(m.add_binary(name));
    }
  }
  LinearExpr cap, obj;
  for (int i = 0; i < n; ++i) {
    cap += rng.uniform(0.5, 2.0) * LinearExpr(vars[static_cast<std::size_t>(i)]);
    obj += rng.uniform(-1.0, 3.0) * LinearExpr(vars[static_cast<std::size_t>(i)]);
  }
  m.add_constraint("cap", cap <= rng.uniform(2.0, 6.0));
  m.set_objective(Sense::kMaximize, obj);

  const auto direct = MilpSolver{}.solve(m);
  const auto pre = presolve(m);
  if (pre.infeasible) {
    EXPECT_EQ(direct.status, MilpStatus::kInfeasible);
    return;
  }
  const auto reduced = MilpSolver{}.solve(*pre.model);
  ASSERT_EQ(direct.status, reduced.status);
  if (direct.status != MilpStatus::kOptimal) return;
  EXPECT_NEAR(direct.objective, reduced.objective, 1e-6)
      << "seed " << GetParam();
  const auto full = pre.restore(reduced.x);
  EXPECT_TRUE(m.is_feasible(full));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace pran::lp
