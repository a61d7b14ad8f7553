// E10 — MILP solver scaling and the LP-relaxation bound.
//
// How far the exact placer scales once the model is right: the load-cover
// row (sum_s y_s >= k) lifts the LP relaxation — the bound the search
// prunes against — to the fewest servers that can hold the demand, and
// first-fit's answer seeds the incumbent. When first-fit reaches that
// bound the root relaxation proves it optimal, so the cost is one LP solve
// on the dense tableau. Printed per size: model shape, nodes, pivots,
// solve time, LP bound vs integer optimum.

#include <cstdio>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/placement.hpp"
#include "lp/simplex.hpp"

int main() {
  using namespace pran;

  std::printf("E10: branch-and-bound scaling on placement MILPs\n\n");

  Table table({"cells", "servers", "vars", "constraints", "lp_obj",
               "ilp_obj", "lp_gap_pct", "nodes", "lp_pivots", "milp_ms",
               "status"});

  for (int cells : {4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64}) {
    const int servers = cells / 2 + 2;
    Rng rng(500 + static_cast<std::uint64_t>(cells));
    core::PlacementProblem p;
    p.headroom = 0.85;
    for (int c = 0; c < cells; ++c) {
      const double demand = rng.uniform(0.1, 0.5);
      p.cells.push_back({c, demand, demand * 1.5});
    }
    for (int s = 0; s < servers; ++s)
      p.servers.push_back(cluster::ServerSpec{"s", 1, 1000.0});

    const auto model = core::build_placement_model(p);
    const auto lp = lp::SimplexSolver{}.solve(model);

    lp::MilpOptions opts;
    opts.time_limit_s = 30.0;
    opts.max_nodes = 2000000;
    const auto ffd = core::FirstFitPlacer{}.place(p);
    const auto milp = lp::MilpSolver{opts}.solve(
        model, ffd.feasible ? core::placement_point(p, ffd.server_of_cell)
                            : std::vector<double>{});

    const char* status = "?";
    switch (milp.status) {
      case lp::MilpStatus::kOptimal:
        status = "optimal";
        break;
      case lp::MilpStatus::kFeasible:
        status = "limit+incumbent";
        break;
      case lp::MilpStatus::kInfeasible:
        status = "infeasible";
        break;
      default:
        status = "limit";
        break;
    }
    const double gap =
        milp.has_solution() && milp.objective != 0.0
            ? 100.0 * (milp.objective - lp.objective) / milp.objective
            : 0.0;
    table.row()
        .cell(cells)
        .cell(servers)
        .cell(model.num_variables())
        .cell(model.num_constraints())
        .cell(lp.objective, 3)
        .cell(milp.has_solution() ? milp.objective : -1.0, 3)
        .cell(gap, 1)
        .cell(static_cast<long long>(milp.nodes))
        .cell(static_cast<long long>(milp.lp_iterations))
        .cell(milp.solve_seconds * 1e3, 2)
        .cell(status);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: with the load-cover row the LP bound meets the integer "
      "optimum, and the first-fit start closes the root; solve time is "
      "the dense root LP, which grows with the tableau\n");
  return 0;
}
