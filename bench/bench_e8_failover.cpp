// E8 — Failover: what one server failure costs, as a function of spare
// capacity.
//
// Claims reproduced: with spare headroom in the cluster the controller
// re-places the victim's cells immediately — the damage is bounded to the
// in-flight subframes (a few per cell) — while an under-provisioned
// cluster leaves cells in outage until capacity returns.

#include <cstdio>

#include "common/table.hpp"
#include "core/deployment.hpp"

int main() {
  using namespace pran;

  std::printf(
      "E8: server failure at t=500 ms, 8 cells, varying cluster size "
      "(2 s runs)\n\n");

  Table table({"servers", "outage_cells", "dropped_jobs", "misses",
               "recovered_within_ms", "miss_ratio_overall"});

  for (int servers : {2, 3, 4, 5}) {
    core::DeploymentConfig config;
    config.num_cells = 8;
    config.num_servers = servers;
    config.seed = 31;
    config.start_hour = 11.0;
    config.day_compression = 60.0;
    config.keep_outcome_log = true;
    core::Deployment d(config);

    d.run_for(500 * sim::kMillisecond);
    const int victim = d.controller().server_of(0);
    const sim::Time fail_at = d.now();
    d.fail_server_at(fail_at, victim);
    d.run_for(1500 * sim::kMillisecond);

    // Recovery latency: last deadline miss / drop of any cell that lived
    // on the victim, relative to the failure instant.
    sim::Time last_disruption = fail_at;
    for (const auto& o : d.executor().outcomes()) {
      const bool disrupted = o.dropped || o.missed_deadline();
      if (!disrupted) continue;
      const sim::Time at = o.dropped ? o.job.deadline : o.finish;
      if (at >= fail_at) last_disruption = std::max(last_disruption, at);
    }
    const auto kpis = d.kpis();
    table.row()
        .cell(servers)
        .cell(kpis.failover_outage_cells)
        .cell(static_cast<long long>(kpis.dropped))
        .cell(static_cast<long long>(kpis.deadline_misses))
        .cell(sim::to_seconds(last_disruption - fail_at) * 1e3, 1)
        .cell(kpis.miss_ratio, 5);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: with spare capacity, disruption is limited to in-flight "
      "subframes; a 2-server cluster cannot absorb the loss\n");
  return 0;
}
