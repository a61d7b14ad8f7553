#pragma once

/// \file presolve.hpp
/// Lightweight MILP presolve. MilpSolver does not call it: on PRAN's
/// placement models it removes nothing and costs more than it saves. It
/// stays as a standalone pass for models that do carry fixed variables or
/// redundant rows; solve its reduced model and lift the answer back.
///
/// Implements the standard cheap reductions:
///  * substitute variables whose bounds are equal (fixed variables) into
///    the constraints and objective;
///  * round fractional bounds of integer variables inward;
///  * drop constraints that are always satisfied (row activity bounds
///    inside the rhs) and detect ones that never can be (infeasible);
///  * singleton rows become bound tightenings.
///
/// The output is a smaller Model plus the information needed to lift a
/// solution of the reduced model back to the original variable space.

#include <optional>
#include <vector>

#include "lp/model.hpp"

namespace pran::lp {

struct PresolveResult {
  /// Reduced model; absent when presolve proved infeasibility.
  std::optional<Model> model;
  bool infeasible = false;

  /// original index -> reduced index, or -1 if the variable was fixed.
  std::vector<int> index_map;
  /// original index -> fixed value (valid where index_map is -1; fixed
  /// values are also recorded for surviving variables whose bounds became
  /// equal — check index_map first).
  std::vector<double> fixed_value;

  int fixed_variables = 0;
  int dropped_constraints = 0;
  int tightened_bounds = 0;

  /// Lifts a reduced-model solution back to original variable order.
  std::vector<double> restore(const std::vector<double>& reduced) const;
};

/// Runs the reductions to a fixed point (bounded passes).
PresolveResult presolve(const Model& model);

}  // namespace pran::lp
