// E6 — Deadline-miss ratio vs offered utilisation: EDF vs FIFO on a mixed
// uplink + downlink workload.
//
// Drives the executor directly (no admission control) so the server can be
// pushed past its capacity. Uplink subframes carry a ~3 ms HARQ budget;
// downlink subframes must be encoded before they go on air, a ~1 ms window
// — so deadlines are heterogeneous and the scheduling policy matters.
// Claims reproduced: (i) EDF meets essentially all deadlines until
// utilisation approaches 1; (ii) FIFO lets tight downlink deadlines starve
// behind queued uplink work well before saturation; (iii) past utilisation
// 1 both collapse, which is why the controller places with headroom < 1.

#include <cstdio>

#include "cluster/executor.hpp"
#include "common/table.hpp"
#include "lte/subframe.hpp"
#include "sim/engine.hpp"
#include "workload/traffic.hpp"

namespace {

struct RunResult {
  double offered_utilization = 0.0;
  double miss_ratio = 0.0;         // all jobs
  double dl_miss_ratio = 0.0;      // tight-deadline downlink jobs only
};

RunResult run(double load, pran::cluster::SchedPolicy policy, int ttis) {
  using namespace pran;
  const int num_cells = 4;
  const cluster::ServerSpec server{"srv", 4, 150.0};

  sim::Engine engine;
  cluster::Executor executor(engine, {server}, policy);
  std::uint64_t done = 0, missed = 0, dl_done = 0, dl_missed = 0;
  executor.set_completion_callback([&](const cluster::JobOutcome& o) {
    if (o.dropped) return;
    ++done;
    if (o.missed_deadline()) ++missed;
    if (o.job.direction == lte::Direction::kDownlink) {
      ++dl_done;
      if (o.missed_deadline()) ++dl_missed;
    }
  });

  std::vector<workload::TrafficModel> ul_cells;
  std::vector<workload::TrafficModel> dl_cells;
  std::vector<lte::SubframeFactory> factories;
  const lte::CostModel model;
  for (int c = 0; c < num_cells; ++c) {
    workload::CellSite site;
    site.cell_id = c;
    site.peak_prb_utilization = load;
    ul_cells.emplace_back(site, workload::DiurnalProfile::flat(1.0), model,
                          4242 + static_cast<std::uint64_t>(c));
    dl_cells.emplace_back(site, workload::DiurnalProfile::flat(1.0), model,
                          9797 + static_cast<std::uint64_t>(c));
    factories.emplace_back(c, site.config, model, 25 * sim::kMicrosecond);
  }

  double total_gops = 0.0;
  for (std::int64_t tti = 0; tti < ttis; ++tti) {
    for (int c = 0; c < num_cells; ++c) {
      const auto ul =
          ul_cells[static_cast<std::size_t>(c)].sample_subframe(12.0);
      auto job = factories[static_cast<std::size_t>(c)].uplink_job(tti, ul);
      total_gops += job.total_gops();
      executor.submit(0, job);

      const auto dl =
          dl_cells[static_cast<std::size_t>(c)].sample_subframe(12.0);
      auto dl_job =
          factories[static_cast<std::size_t>(c)].downlink_job(tti + 2, dl);
      total_gops += dl_job.total_gops();
      executor.submit(0, dl_job);
    }
  }
  engine.run();

  RunResult result;
  result.offered_utilization =
      total_gops / (static_cast<double>(ttis) * server.gops_per_tti());
  if (done)
    result.miss_ratio =
        static_cast<double>(missed) / static_cast<double>(done);
  if (dl_done)
    result.dl_miss_ratio =
        static_cast<double>(dl_missed) / static_cast<double>(dl_done);
  return result;
}

}  // namespace

int main() {
  using namespace pran;
  const int ttis = 1200;

  std::printf(
      "E6: deadline-miss ratio vs offered utilisation, mixed UL (3 ms "
      "budget) + DL (1 ms budget), 4 cells on one 4-core server\n\n");

  Table table({"peak_prb_util", "offered_util", "edf_miss", "fifo_miss",
               "edf_dl_miss", "fifo_dl_miss"});
  for (double load : {0.15, 0.25, 0.35, 0.42, 0.50, 0.56, 0.65, 0.80}) {
    const auto edf = run(load, cluster::SchedPolicy::kEdf, ttis);
    const auto fifo = run(load, cluster::SchedPolicy::kFifo, ttis);
    table.row()
        .cell(load, 2)
        .cell(edf.offered_utilization, 3)
        .cell(edf.miss_ratio, 5)
        .cell(fifo.miss_ratio, 5)
        .cell(edf.dl_miss_ratio, 5)
        .cell(fifo.dl_miss_ratio, 5);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: FIFO starves tight downlink deadlines behind uplink "
      "backlog well before utilisation 1; EDF does not\n");
  return 0;
}
