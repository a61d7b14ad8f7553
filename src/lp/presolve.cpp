#include "lp/presolve.hpp"

#include <cmath>
#include <map>

#include "common/check.hpp"

namespace pran::lp {
namespace {

constexpr double kTol = 1e-9;

struct WorkingRow {
  std::map<int, double> terms;
  Relation relation;
  double rhs;
  bool alive = true;
};

}  // namespace

std::vector<double> PresolveResult::restore(
    const std::vector<double>& reduced) const {
  PRAN_REQUIRE(!infeasible && model.has_value(),
               "cannot restore from an infeasible presolve");
  PRAN_REQUIRE(reduced.size() ==
                   static_cast<std::size_t>(model->num_variables()),
               "reduced solution has wrong dimension");
  std::vector<double> full(index_map.size(), 0.0);
  for (std::size_t i = 0; i < index_map.size(); ++i) {
    full[i] = index_map[i] >= 0
                  ? reduced[static_cast<std::size_t>(index_map[i])]
                  : fixed_value[i];
  }
  return full;
}

PresolveResult presolve(const Model& original) {
  PRAN_REQUIRE(original.num_variables() > 0, "model has no variables");
  const int n = original.num_variables();

  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  std::vector<VarType> type(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& v = original.variables()[static_cast<std::size_t>(i)];
    lower[static_cast<std::size_t>(i)] = v.lower;
    upper[static_cast<std::size_t>(i)] = v.upper;
    type[static_cast<std::size_t>(i)] = v.type;
  }

  std::vector<WorkingRow> rows;
  rows.reserve(original.constraints().size());
  for (const auto& ci : original.constraints()) {
    WorkingRow row;
    row.relation = ci.constraint.relation;
    row.rhs = ci.constraint.rhs;
    for (const auto& [v, c] : ci.constraint.lhs.terms())
      if (c != 0.0) row.terms[v.index] += c;
    rows.push_back(std::move(row));
  }

  PresolveResult result;
  result.index_map.assign(static_cast<std::size_t>(n), 0);
  result.fixed_value.assign(static_cast<std::size_t>(n), 0.0);

  auto integral_round = [&](int i) {
    auto& lo = lower[static_cast<std::size_t>(i)];
    auto& hi = upper[static_cast<std::size_t>(i)];
    if (type[static_cast<std::size_t>(i)] == VarType::kContinuous) return;
    const double new_lo = std::ceil(lo - kTol);
    const double new_hi = std::isfinite(hi) ? std::floor(hi + kTol) : hi;
    if (new_lo > lo + kTol || new_hi < hi - kTol) ++result.tightened_bounds;
    lo = new_lo;
    hi = new_hi;
  };
  for (int i = 0; i < n; ++i) integral_round(i);

  bool changed = true;
  for (int pass = 0; pass < 10 && changed; ++pass) {
    changed = false;

    for (int i = 0; i < n; ++i)
      if (lower[static_cast<std::size_t>(i)] >
          upper[static_cast<std::size_t>(i)] + kTol) {
        result.infeasible = true;
        return result;
      }

    for (auto& row : rows) {
      if (!row.alive) continue;

      // Substitute fixed variables (bounds equal) into the rhs.
      for (auto it = row.terms.begin(); it != row.terms.end();) {
        const auto i = static_cast<std::size_t>(it->first);
        if (std::abs(upper[i] - lower[i]) <= kTol) {
          row.rhs -= it->second * lower[i];
          it = row.terms.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }

      // Singleton row -> bound tightening.
      if (row.terms.size() == 1) {
        const int i = row.terms.begin()->first;
        const double a = row.terms.begin()->second;
        const double bound = row.rhs / a;
        auto& lo = lower[static_cast<std::size_t>(i)];
        auto& hi = upper[static_cast<std::size_t>(i)];
        const bool upper_bound =
            (row.relation == Relation::kLessEqual) == (a > 0.0);
        if (row.relation == Relation::kEqual) {
          lo = std::max(lo, bound);
          hi = std::min(hi, bound);
        } else if (upper_bound) {
          if (bound < hi - kTol) ++result.tightened_bounds;
          hi = std::min(hi, bound);
        } else {
          if (bound > lo + kTol) ++result.tightened_bounds;
          lo = std::max(lo, bound);
        }
        integral_round(i);
        row.alive = false;
        ++result.dropped_constraints;
        changed = true;
        continue;
      }

      // Activity bounds.
      double min_act = 0.0;
      double max_act = 0.0;
      bool min_finite = true, max_finite = true;
      for (const auto& [i, a] : row.terms) {
        const double lo = lower[static_cast<std::size_t>(i)];
        const double hi = upper[static_cast<std::size_t>(i)];
        const double amin = a > 0.0 ? a * lo : a * hi;
        const double amax = a > 0.0 ? a * hi : a * lo;
        if (!std::isfinite(amin)) min_finite = false; else min_act += amin;
        if (!std::isfinite(amax)) max_finite = false; else max_act += amax;
      }
      if (row.terms.empty()) {
        // Constant row: either trivially true or infeasible.
        const bool ok = (row.relation == Relation::kLessEqual &&
                         0.0 <= row.rhs + kTol) ||
                        (row.relation == Relation::kGreaterEqual &&
                         0.0 >= row.rhs - kTol) ||
                        (row.relation == Relation::kEqual &&
                         std::abs(row.rhs) <= kTol);
        if (!ok) {
          result.infeasible = true;
          return result;
        }
        row.alive = false;
        ++result.dropped_constraints;
        changed = true;
        continue;
      }
      switch (row.relation) {
        case Relation::kLessEqual:
          if (min_finite && min_act > row.rhs + kTol) {
            result.infeasible = true;
            return result;
          }
          if (max_finite && max_act <= row.rhs + kTol) {
            row.alive = false;
            ++result.dropped_constraints;
            changed = true;
          }
          break;
        case Relation::kGreaterEqual:
          if (max_finite && max_act < row.rhs - kTol) {
            result.infeasible = true;
            return result;
          }
          if (min_finite && min_act >= row.rhs - kTol) {
            row.alive = false;
            ++result.dropped_constraints;
            changed = true;
          }
          break;
        case Relation::kEqual:
          if ((min_finite && min_act > row.rhs + kTol) ||
              (max_finite && max_act < row.rhs - kTol)) {
            result.infeasible = true;
            return result;
          }
          break;
      }
    }
  }

  // Build the reduced model.
  Model reduced;
  int next = 0;
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (std::abs(upper[idx] - lower[idx]) <= kTol) {
      result.index_map[idx] = -1;
      result.fixed_value[idx] = lower[idx];
      ++result.fixed_variables;
    } else {
      result.index_map[idx] = next++;
      reduced.add_variable(
          original.variables()[idx].name, lower[idx], upper[idx], type[idx]);
    }
  }

  if (next == 0) {
    // Everything fixed: keep one dummy so downstream solvers have a model.
    reduced.add_continuous("presolve_dummy", 0.0, 0.0);
  }

  int row_id = 0;
  for (const auto& row : rows) {
    if (!row.alive) continue;
    LinearExpr expr;
    double rhs = row.rhs;
    bool any = false;
    for (const auto& [i, a] : row.terms) {
      const auto idx = static_cast<std::size_t>(i);
      if (result.index_map[idx] < 0) {
        rhs -= a * result.fixed_value[idx];
      } else {
        expr.add_term(Variable{result.index_map[idx]}, a);
        any = true;
      }
    }
    if (!any) continue;  // fully substituted; feasibility was checked above
    std::string name = "p";
    name += std::to_string(row_id++);
    reduced.add_constraint(std::move(name),
                           Constraint{std::move(expr), row.relation, rhs});
  }

  LinearExpr objective;
  double constant = original.objective().constant();
  for (const auto& [v, c] : original.objective().terms()) {
    const auto idx = static_cast<std::size_t>(v.index);
    if (result.index_map[idx] < 0)
      constant += c * result.fixed_value[idx];
    else
      objective.add_term(Variable{result.index_map[idx]}, c);
  }
  objective += LinearExpr(constant);
  reduced.set_objective(original.sense(), std::move(objective));

  result.model = std::move(reduced);
  return result;
}

}  // namespace pran::lp
