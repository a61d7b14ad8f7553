// E16 — Code-block parallelism ablation: how slow can a core be?
//
// Real software BBUs meet the 3 ms HARQ budget by fanning each subframe's
// independent turbo code blocks across cores. This bench sweeps per-core
// speed and compares serial execution (one core per subframe) against
// code-block fan-out: with fan-out, much weaker cores still hold the
// deadline, widening the hardware PRAN can run on.

#include <cstdio>

#include "cluster/executor.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "lte/subframe.hpp"
#include "sim/engine.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace pran;

struct Result {
  double miss_ratio = 0.0;
  double p99_latency_ms = 0.0;
};

Result run(double gops_per_core, int max_parallelism, int ttis) {
  const int num_cells = 4;
  cluster::ServerSpec server{"srv", 16, gops_per_core};
  server.max_job_parallelism = max_parallelism;

  sim::Engine engine;
  cluster::Executor executor(engine, {server}, cluster::SchedPolicy::kEdf);
  Samples latency;
  executor.set_completion_callback([&latency](const cluster::JobOutcome& o) {
    if (!o.dropped) latency.add(sim::to_seconds(o.latency()) * 1e3);
  });

  std::vector<workload::TrafficModel> cells;
  std::vector<lte::SubframeFactory> factories;
  const lte::CostModel model;
  for (int c = 0; c < num_cells; ++c) {
    workload::CellSite site;
    site.cell_id = c;
    site.peak_prb_utilization = 0.7;
    cells.emplace_back(site, workload::DiurnalProfile::flat(1.0), model,
                       31337 + static_cast<std::uint64_t>(c));
    factories.emplace_back(c, site.config, model, 25 * sim::kMicrosecond);
  }
  for (std::int64_t tti = 0; tti < ttis; ++tti)
    for (int c = 0; c < num_cells; ++c)
      executor.submit(0, factories[static_cast<std::size_t>(c)].uplink_job(
                             tti, cells[static_cast<std::size_t>(c)]
                                      .sample_subframe(12.0)));
  engine.run();

  Result result;
  result.miss_ratio = executor.stats().miss_ratio();
  if (!latency.empty()) result.p99_latency_ms = latency.quantile(0.99);
  return result;
}

}  // namespace

int main() {
  using namespace pran;
  const int ttis = 1000;

  std::printf(
      "E16: serial vs code-block-parallel subframe execution "
      "(4 cells on one 16-core server, %d TTIs)\n\n",
      ttis);

  Table table({"gops_per_core", "serial_miss", "parallel_miss",
               "serial_p99_ms", "parallel_p99_ms"});
  for (double gops : {40.0, 60.0, 80.0, 100.0, 150.0}) {
    const auto serial = run(gops, 1, ttis);
    const auto parallel = run(gops, 16, ttis);
    table.row()
        .cell(gops, 0)
        .cell(serial.miss_ratio, 5)
        .cell(parallel.miss_ratio, 5)
        .cell(serial.p99_latency_ms, 2)
        .cell(parallel.p99_latency_ms, 2);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: serial execution needs ~100+ GOPS cores to hold the 3 ms "
      "budget; code-block fan-out holds it with far weaker cores and "
      "collapses the latency tail\n");
  return 0;
}
