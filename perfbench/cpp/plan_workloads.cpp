// plan-ffd and plan-milp: the controller's placement problems, solved
// outside any simulation.
//
// Each problem is built the way Controller::make_problem builds one:
// per-cell demand = safety x TrafficModel::expected_subframe_gops at the
// epoch's diurnal hour (from workload::make_fleet), headroom 0.8,
// migration weight 0.01, servers = cells / 2, and the previous placement
// taken from the placer's own answer to the epoch before. A fleet
// contributes one diurnal day of evenly spaced epochs; the timed loop
// walks the problems in order, wrapping around, until the requested
// seconds pass.
//
// plan-ffd solves one 1024-cell fleet's hourly problems with the sticky
// first-fit placer. plan-milp solves 480 8-cell fleets' 3-hourly problems
// with the branch-and-bound placer and checks each answer against
// first-fit on the same problem.
//
// Every problem is solved again on each pass, so each has several timed
// calls, each scaled to nominal host speed (speed.hpp); its time is their
// median (report.hpp, ItemTimes). The latencies are percentiles over the
// problems' times, and the throughput is problems per second of their
// sum.

#include <algorithm>
#include <optional>

#include "core/placement.hpp"
#include "lp/branch_and_bound.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "speed.hpp"
#include "tracer.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pran;

namespace {

constexpr double kDemandSafety = 1.25;
/// Draws averaged per expected_subframe_gops estimate.
constexpr int kDemandSamples = 16;
constexpr double kHeadroom = 0.8;
constexpr double kMigrationWeight = 0.01;

/// One fleet's diurnal day of problems; `previous` is filled in by the
/// loop that solves them.
struct Day {
  std::vector<core::PlacementProblem> epochs;
};

Day make_day(int cells, int epochs, std::uint64_t seed) {
  const auto fleet = workload::make_fleet(cells, seed);
  const std::vector<cluster::ServerSpec> servers(
      static_cast<std::size_t>(std::max(1, cells / 2)));
  Day day;
  for (int e = 0; e < epochs; ++e) {
    const double hour = 24.0 * e / epochs;
    core::PlacementProblem p;
    p.headroom = kHeadroom;
    p.migration_weight = kMigrationWeight;
    p.servers = servers;
    for (const auto& cell : fleet.cells)
      p.cells.push_back({cell.site().cell_id,
                         kDemandSafety * cell.expected_subframe_gops(
                                             hour, kDemandSamples),
                         cell.peak_subframe_gops()});
    day.epochs.push_back(std::move(p));
  }
  return day;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Demand over provisioned budget on the active servers.
double packing(const core::PlacementProblem& p,
               const core::PlacementResult& r) {
  double demand = 0.0;
  for (const auto& c : p.cells) demand += c.gops_per_tti;
  const int active = r.active_servers();
  if (active == 0) return 0.0;
  return demand /
         (active * p.headroom * p.servers.front().gops_per_tti());
}

struct Pool {
  std::vector<Day> days;
  std::size_t problems() const {
    std::size_t n = 0;
    for (const Day& d : days) n += d.epochs.size();
    return n;
  }
};

/// Builds the pool `repeats` times (same seed, same pool) and returns the
/// median build time, scaled to nominal host speed. The previous pool is
/// freed first: with two alive, the peak memory depended on how the heap
/// happened to be trimmed, and moved by 5% from seed to seed.
template <typename Build>
double timed_setup(int repeats, Pool& pool, Build build, HostSpeed& speed,
                   std::uint64_t* samples) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    pool = Pool{};
    speed.resample();
    const double t0 = cpu_seconds();
    Pool fresh = build();
    times.push_back(speed.scale(cpu_seconds() - t0));
    pool = std::move(fresh);
  }
  *samples = times.size();
  return median(times);
}

// --------------------------------------------------------------- plan-ffd

constexpr int kFfdCells = 1024;
constexpr int kFfdEpochs = 24;

Pool ffd_pool(std::uint64_t seed) {
  Pool pool;
  pool.days.push_back(make_day(kFfdCells, kFfdEpochs, mix(seed, 0)));
  return pool;
}

}  // namespace

void run_plan_ffd(const Options& options, Report& report) {
  HostSpeed speed;
  Pool pool;
  EndToEnd e;
  e.setup_s = timed_setup(3, pool, [&] { return ffd_pool(options.seed); },
                          speed, &e.setup_samples);
  auto& epochs = pool.days.front().epochs;
  core::FirstFitPlacer ffd(/*sticky=*/true);
  std::optional<std::vector<int>> previous;

  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;
  const std::uint32_t place_name = tracer.intern("core.ffd_place");
  const std::uint32_t fits_name = tracer.intern("core.placement_fits");

  ItemTimes times(epochs.size());
  std::vector<double> eff, servers;
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    core::PlacementProblem& p = epochs[i % epochs.size()];
    p.previous = previous;
    const auto id = static_cast<std::int64_t>(i);
    core::PlacementResult r;
    {
      Tracer::Scope sp(tr, place_name, id);
      const double t0 = cpu_seconds();
      r = ffd.place(p);
      times.add(i % epochs.size(), speed.scale(cpu_seconds() - t0));
    }
    speed.tick();
    bool fits = false;
    {
      Tracer::Scope sp(tr, fits_name, id);
      fits = r.feasible && core::placement_fits(p, r.server_of_cell);
    }
    report.attempt(fits, "ffd placement infeasible or over capacity at "
                         "epoch " + std::to_string(i % epochs.size()));
    if (r.feasible) previous = r.server_of_cell;
    if (i < epochs.size()) {  // quality over one diurnal day
      eff.push_back(packing(p, r));
      servers.push_back(r.active_servers());
    }
    ++i;
  } while (seconds_since(start) < options.seconds || i < epochs.size());

  const std::vector<double> place_us = times.micros();
  report.detail("problems", static_cast<double>(epochs.size()), "count");
  report.detail("place_calls", static_cast<double>(i), "count");
  report.detail("plan_ffd_p50_ms", percentile(place_us, 0.5) / 1e3, "ms",
                place_us.size());
  report.detail("plan_ffd_p99_ms", percentile(place_us, 0.99) / 1e3, "ms",
                place_us.size());
  report.detail("plan_ffd_servers", mean(servers), "count", servers.size());
  if (options.trace) {
    const auto per_call_us = [&](const char* n) {
      const Tracer::LayerTime l = tracer.layer(n);
      return l.calls ? l.self_ns / static_cast<double>(l.calls) / 1e3 : 0.0;
    };
    report_layers(report,
                  {{"core.ffd_place_us", per_call_us("core.ffd_place")},
                   {"core.placement_fits_us",
                    per_call_us("core.placement_fits")}},
                  options.seed);
    tracer.write(options.out_dir + "/plan-ffd-trace.json");
    return;
  }
  e.throughput = static_cast<double>(epochs.size()) / times.sum();
  e.latency_p50_us = percentile(place_us, 0.5);
  e.latency_tail_us = percentile(place_us, 0.99);
  e.latency_samples = place_us.size();
  e.peak_rss_mb = peak_rss_mb();
  e.goodput = mean(eff);
  report.detail("setup_s", e.setup_s, "s", e.setup_samples);
  report.detail("host_slowdown", speed.slowdown(), "ratio");
  report_end_to_end(report, e);
}

// -------------------------------------------------------------- plan-milp

namespace {

constexpr int kMilpDays = 480;
constexpr int kMilpEpochs = 8;
constexpr int kMilpCells = 8;

Pool milp_pool(std::uint64_t seed) {
  Pool pool;
  for (int f = 0; f < kMilpDays; ++f) {
    pool.days.push_back(
        make_day(kMilpCells, kMilpEpochs,
                 mix(seed, static_cast<std::uint64_t>(f) + 1)));
  }
  return pool;
}

}  // namespace

void run_plan_milp(const Options& options, Report& report) {
  HostSpeed speed;
  Pool pool;
  EndToEnd e;
  e.setup_s = timed_setup(3, pool, [&] { return milp_pool(options.seed); },
                          speed, &e.setup_samples);
  core::MilpPlacer milp;
  core::FirstFitPlacer ffd(/*sticky=*/true);

  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;
  const std::uint32_t build_name = tracer.intern("lp.build_model");
  const std::uint32_t presolve_name = tracer.intern("lp.presolve");
  const std::uint32_t root_name = tracer.intern("lp.root_lp");
  const std::uint32_t solve_name = tracer.intern("lp.milp_solve");
  const std::uint32_t ffd_name = tracer.intern("core.ffd_place");
  const std::uint32_t fits_name = tracer.intern("core.placement_fits");

  std::vector<double> eff, milp_servers, ffd_servers;
  std::vector<double> nodes, pivots, gaps;
  const std::size_t per_pass = pool.problems();
  ItemTimes times(per_pass);
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    Day& day = pool.days[(i / kMilpEpochs) % pool.days.size()];
    core::PlacementProblem& p = day.epochs[i % kMilpEpochs];
    const auto id = static_cast<std::int64_t>(i);
    // Chain to this fleet's previous epoch (none at the start of a day).
    if (i % kMilpEpochs == 0) p.previous.reset();

    core::PlacementResult r;
    if (!options.trace) {
      const double t0 = cpu_seconds();
      r = milp.place(p);
      times.add(i % per_pass, speed.scale(cpu_seconds() - t0));
      speed.tick();
    } else {
      // The layers MilpPlacer::place runs, called one by one.
      lp::Model model;
      {
        Tracer::Scope sp(tr, build_name, id);
        model = core::build_placement_model(p);
      }
      {
        Tracer::Scope sp(tr, presolve_name, id);
        (void)lp::presolve(model);
      }
      lp::LpResult root;
      {
        Tracer::Scope sp(tr, root_name, id);
        root = lp::SimplexSolver{}.solve(model);
      }
      lp::MilpResult m;
      {
        Tracer::Scope sp(tr, solve_name, id);
        m = lp::MilpSolver{}.solve(model);
      }
      nodes.push_back(static_cast<double>(m.nodes));
      pivots.push_back(static_cast<double>(m.lp_iterations));
      if (m.has_solution() && m.objective != 0.0)
        gaps.push_back((m.objective - root.objective) / m.objective);
      r = milp.place(p);
    }
    core::PlacementResult f;
    {
      Tracer::Scope sp(tr, ffd_name, id);
      f = ffd.place(p);
    }
    bool fits = false;
    {
      Tracer::Scope sp(tr, fits_name, id);
      fits = r.feasible && core::placement_fits(p, r.server_of_cell);
    }
    std::string why;
    if (!fits)
      why = "milp placement infeasible or over capacity";
    else if (!r.proven_optimal)
      why = "milp placement not proven optimal";
    else if (!f.feasible || r.active_servers() > f.active_servers())
      why = "milp placement uses more servers than first-fit";
    report.attempt(why.empty(), why + " (problem " + std::to_string(i) + ")");
    if (r.feasible) {
      const std::size_t next = (i + 1) % kMilpEpochs;
      if (next != 0) day.epochs[next].previous = r.server_of_cell;
    }
    if (i < per_pass) {
      eff.push_back(packing(p, r));
      milp_servers.push_back(r.active_servers());
      ffd_servers.push_back(f.active_servers());
    }
    ++i;
  } while ((!options.trace && seconds_since(start) < options.seconds) ||
           i < per_pass);

  report.detail("problems", static_cast<double>(per_pass), "count");
  report.detail("place_calls", static_cast<double>(i), "count");
  report.detail("plan_milp_servers", mean(milp_servers), "count",
                milp_servers.size());
  report.detail("plan_ffd_servers", mean(ffd_servers), "count",
                ffd_servers.size());
  if (options.trace) {
    const auto per_call = [&](const char* n, double scale) {
      const Tracer::LayerTime l = tracer.layer(n);
      return l.calls ? l.self_ns / static_cast<double>(l.calls) / scale : 0.0;
    };
    report_layers(
        report,
        {{"lp.build_model_us", per_call("lp.build_model", 1e3)},
         {"lp.presolve_us", per_call("lp.presolve", 1e3)},
         {"lp.root_lp_ms", per_call("lp.root_lp", 1e6)},
         {"lp.root_gap", median(gaps)},
         {"lp.milp_nodes_p90", percentile(nodes, 0.9)},
         {"lp.pivots_p90", percentile(pivots, 0.9)},
         {"core.ffd_place_us", per_call("core.ffd_place", 1e3)},
         {"core.placement_fits_us", per_call("core.placement_fits", 1e3)}},
        options.seed);
    report.detail("lp_milp_solve_ms_mean", per_call("lp.milp_solve", 1e6),
                  "ms", nodes.size());
    tracer.write(options.out_dir + "/plan-milp-trace.json");
    return;
  }
  const std::vector<double> place_us = times.micros();
  e.throughput = static_cast<double>(per_pass) / times.sum();
  e.latency_p50_us = percentile(place_us, 0.5);
  e.latency_tail_us = percentile(place_us, 0.9);
  e.latency_samples = place_us.size();
  e.peak_rss_mb = peak_rss_mb();
  e.goodput = mean(eff);
  report.detail("plan_milp_p50_ms", e.latency_p50_us / 1e3, "ms",
                place_us.size());
  report.detail("plan_milp_p90_ms", e.latency_tail_us / 1e3, "ms",
                place_us.size());
  report.detail("plan_milp_max_ms", percentile(place_us, 1.0) / 1e3, "ms",
                place_us.size());
  report.detail("setup_s", e.setup_s, "s", e.setup_samples);
  report.detail("host_slowdown", speed.slowdown(), "ratio");
  report_end_to_end(report, e);
}

std::vector<LayerValue> probe_plan_layers(std::uint64_t seed) {
  Day day = make_day(kMilpCells, kMilpEpochs, mix(seed, 1));
  core::FirstFitPlacer ffd(/*sticky=*/true);
  std::vector<double> ffd_us, fits_us, build_us, presolve_us, root_ms;
  for (core::PlacementProblem& p : day.epochs) {
    double t0 = cpu_seconds();
    const core::PlacementResult r = ffd.place(p);
    ffd_us.push_back((cpu_seconds() - t0) * 1e6);
    t0 = cpu_seconds();
    (void)core::placement_fits(p, r.server_of_cell);
    fits_us.push_back((cpu_seconds() - t0) * 1e6);
    t0 = cpu_seconds();
    const lp::Model model = core::build_placement_model(p);
    build_us.push_back((cpu_seconds() - t0) * 1e6);
    t0 = cpu_seconds();
    (void)lp::presolve(model);
    presolve_us.push_back((cpu_seconds() - t0) * 1e6);
    t0 = cpu_seconds();
    (void)lp::SimplexSolver{}.solve(model);
    root_ms.push_back((cpu_seconds() - t0) * 1e3);
    p.previous = r.server_of_cell;
  }
  return {{"core.ffd_place_us", median(ffd_us)},
          {"core.placement_fits_us", median(fits_us)},
          {"lp.build_model_us", median(build_us)},
          {"lp.presolve_us", median(presolve_us)},
          {"lp.root_lp_ms", median(root_ms)}};
}

}  // namespace perfbench
