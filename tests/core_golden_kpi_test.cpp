// Golden KPI oracle: two fixed-seed deployments, every DeploymentKpis field
// pinned to recorded values.
//
// The fleet run is the steady per-cell-TTI path (statistical traffic, HARQ,
// sticky FFD). The storm run drives drops, failovers, outages, effort caps
// and migrations (MAC traffic, impaired shared fronthaul, ladder, overload,
// lossy two-phase migration, crash/straggler faults behind heartbeats).
// Refactors of the per-subframe path must keep both bit-identical:
// integers match exactly, doubles to 1e-12 relative. The only field left
// out is mean_plan_seconds, which is host wall time.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/deployment.hpp"

namespace pran::core {
namespace {

DeploymentConfig fleet_config() {
  DeploymentConfig c;
  c.num_cells = 32;
  c.num_servers = 16;
  c.harq_retransmissions = true;
  c.placer = DeploymentConfig::PlacerKind::kFirstFit;
  c.seed = 3;
  return c;
}

DeploymentConfig storm_config() {
  DeploymentConfig c;
  c.num_cells = 16;
  c.num_servers = 8;
  c.seed = 6;
  c.traffic_source = DeploymentConfig::TrafficSource::kMacScheduled;
  c.harq_retransmissions = true;
  c.start_hour = 6.0;
  c.day_compression = 7200;
  c.epoch = 250 * sim::kMillisecond;
  c.placer = DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  c.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{50e9}, 25 * sim::kMicrosecond};
  c.fronthaul_compression = 2.0;
  c.fronthaul_impairments.loss.p_good_to_bad = 0.002;
  c.fronthaul_impairments.loss.p_bad_to_good = 0.3;
  c.fronthaul_impairments.loss.loss_bad = 0.3;
  c.fronthaul_impairments.jitter.max_jitter = 100 * sim::kMicrosecond;
  c.fronthaul_impairments.brownout.mtbb_seconds = 0.25;
  c.fronthaul_impairments.brownout.mean_duration_seconds = 0.05;
  c.fronthaul_impairments.brownout.capacity_factor = 0.5;
  c.degradation.enabled = true;
  c.degradation.effort_ladder = {6, 4};
  c.degradation.mcs_cap = 20;
  c.degradation.up_epochs = 1;
  c.degradation.down_epochs = 4;
  c.overload.enabled = true;
  c.migration.enabled = true;
  c.migration.control_plane.loss_probability = 0.1;
  c.migration.control_plane.max_jitter = 1 * sim::kMillisecond;
  c.stochastic_faults.mtbf_seconds = 1.0;
  c.stochastic_faults.mttr_seconds = 0.15;
  c.stochastic_faults.degrade_probability = 0.3;
  c.heartbeat_period = 5 * sim::kMillisecond;
  return c;
}

/// Compares fields one by one and prints each mismatch with full precision,
/// so a deliberate change can be re-recorded from the failure output.
class KpiChecker {
 public:
  void exact(const char* name, double expected, double actual) {
    if (expected != actual) fail(name, expected, actual);
  }
  void close(const char* name, double expected, double actual) {
    const double tol = 1e-12 * std::max(std::fabs(expected), 1e-300);
    if (!(std::fabs(expected - actual) <= tol)) fail(name, expected, actual);
  }

 private:
  void fail(const char* name, double expected, double actual) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: expected %.17g, got %.17g", name,
                  expected, actual);
    ADD_FAILURE() << buf;
  }
};

struct GoldenKpis {
  double subframes_processed, deadline_misses, dropped, miss_ratio,
      migrations, mean_active_servers, failover_outage_cells,
      infeasible_epochs, shed_cell_epochs, outage_cell_ttis,
      harq_retransmissions, lost_transport_blocks, energy_joules,
      faults_injected, degrade_events, fault_detections,
      mean_detection_latency_ms, blind_window_drops, quarantine_events,
      fronthaul_lost_bursts, fronthaul_late_bursts, fronthaul_brownouts,
      shed_subframes, compression_tb_failures, quarantined_cell_ttis,
      ladder_rung, ladder_transitions, compute_outage_jobs,
      compute_outage_tbs, compute_outage_ratio, effort_capped_tbs,
      decode_iterations_needed, decode_iterations_realized,
      offered_tb_bits, delivered_tb_bits, peak_compute_pressure,
      migrations_started, migrations_committed, migrations_aborted,
      migrations_rolled_back, migrations_taken_over, migration_retries,
      migrations_deferred, migration_deadline_expired,
      migration_stale_messages, migration_blackout_ttis,
      migration_dual_executions, mean_handoff_latency_ms;
};

void expect_golden(const DeploymentKpis& k, const GoldenKpis& g) {
  KpiChecker c;
#define PRAN_EXACT(field) \
  c.exact(#field, g.field, static_cast<double>(k.field))
#define PRAN_CLOSE(field) c.close(#field, g.field, k.field)
  PRAN_EXACT(subframes_processed);
  PRAN_EXACT(deadline_misses);
  PRAN_EXACT(dropped);
  PRAN_CLOSE(miss_ratio);
  PRAN_EXACT(migrations);
  PRAN_CLOSE(mean_active_servers);
  PRAN_EXACT(failover_outage_cells);
  PRAN_EXACT(infeasible_epochs);
  PRAN_EXACT(shed_cell_epochs);
  PRAN_EXACT(outage_cell_ttis);
  PRAN_EXACT(harq_retransmissions);
  PRAN_EXACT(lost_transport_blocks);
  PRAN_CLOSE(energy_joules);
  PRAN_EXACT(faults_injected);
  PRAN_EXACT(degrade_events);
  PRAN_EXACT(fault_detections);
  PRAN_CLOSE(mean_detection_latency_ms);
  PRAN_EXACT(blind_window_drops);
  PRAN_EXACT(quarantine_events);
  PRAN_EXACT(fronthaul_lost_bursts);
  PRAN_EXACT(fronthaul_late_bursts);
  PRAN_EXACT(fronthaul_brownouts);
  PRAN_EXACT(shed_subframes);
  PRAN_EXACT(compression_tb_failures);
  PRAN_EXACT(quarantined_cell_ttis);
  PRAN_EXACT(ladder_rung);
  PRAN_EXACT(ladder_transitions);
  PRAN_EXACT(compute_outage_jobs);
  PRAN_EXACT(compute_outage_tbs);
  PRAN_CLOSE(compute_outage_ratio);
  PRAN_EXACT(effort_capped_tbs);
  PRAN_EXACT(decode_iterations_needed);
  PRAN_EXACT(decode_iterations_realized);
  PRAN_CLOSE(offered_tb_bits);
  PRAN_CLOSE(delivered_tb_bits);
  PRAN_CLOSE(peak_compute_pressure);
  PRAN_EXACT(migrations_started);
  PRAN_EXACT(migrations_committed);
  PRAN_EXACT(migrations_aborted);
  PRAN_EXACT(migrations_rolled_back);
  PRAN_EXACT(migrations_taken_over);
  PRAN_EXACT(migration_retries);
  PRAN_EXACT(migrations_deferred);
  PRAN_EXACT(migration_deadline_expired);
  PRAN_EXACT(migration_stale_messages);
  PRAN_EXACT(migration_blackout_ttis);
  PRAN_EXACT(migration_dual_executions);
  PRAN_CLOSE(mean_handoff_latency_ms);
#undef PRAN_EXACT
#undef PRAN_CLOSE
  EXPECT_GE(k.mean_plan_seconds, 0.0);
}

TEST(GoldenKpis, FleetRun) {
  Deployment d(fleet_config());
  d.run_for(sim::kSecond);
  const GoldenKpis g{
      .subframes_processed = 31957,
      .deadline_misses = 0,
      .dropped = 0,
      .miss_ratio = 0,
      .migrations = 4,
      .mean_active_servers = 4.666666666666667,
      .failover_outage_cells = 0,
      .infeasible_epochs = 0,
      .shed_cell_epochs = 0,
      .outage_cell_ttis = 0,
      .harq_retransmissions = 0,
      .lost_transport_blocks = 0,
      .energy_joules = 804.45656816001144,
      .faults_injected = 0,
      .degrade_events = 0,
      .fault_detections = 0,
      .mean_detection_latency_ms = 0,
      .blind_window_drops = 0,
      .quarantine_events = 0,
      .fronthaul_lost_bursts = 0,
      .fronthaul_late_bursts = 0,
      .fronthaul_brownouts = 0,
      .shed_subframes = 0,
      .compression_tb_failures = 0,
      .quarantined_cell_ttis = 0,
      .ladder_rung = 0,
      .ladder_transitions = 0,
      .compute_outage_jobs = 0,
      .compute_outage_tbs = 0,
      .compute_outage_ratio = 0,
      .effort_capped_tbs = 0,
      .decode_iterations_needed = 480322,
      .decode_iterations_realized = 480322,
      .offered_tb_bits = 1149807568,
      .delivered_tb_bits = 1146656752,
      .peak_compute_pressure = 0,
      .migrations_started = 0,
      .migrations_committed = 0,
      .migrations_aborted = 0,
      .migrations_rolled_back = 0,
      .migrations_taken_over = 0,
      .migration_retries = 0,
      .migrations_deferred = 0,
      .migration_deadline_expired = 0,
      .migration_stale_messages = 0,
      .migration_blackout_ttis = 0,
      .migration_dual_executions = 0,
      .mean_handoff_latency_ms = 0,
  };
  expect_golden(d.kpis(), g);
}

TEST(GoldenKpis, StormRun) {
  Deployment d(storm_config());
  d.run_for(sim::kSecond);
  const GoldenKpis g{
      .subframes_processed = 19904,
      .deadline_misses = 3252,
      .dropped = 451,
      .miss_ratio = 0.18192090395480226,
      .migrations = 58,
      .mean_active_servers = 2.2000000000000002,
      .failover_outage_cells = 0,
      .infeasible_epochs = 0,
      .shed_cell_epochs = 0,
      .outage_cell_ttis = 0,
      .harq_retransmissions = 5641,
      .lost_transport_blocks = 3076,
      .energy_joules = 421.80419301999115,
      .faults_injected = 8,
      .degrade_events = 1,
      .fault_detections = 6,
      .mean_detection_latency_ms = 13.037986833333335,
      .blind_window_drops = 423,
      .quarantine_events = 0,
      .fronthaul_lost_bursts = 15,
      .fronthaul_late_bursts = 1167,
      .fronthaul_brownouts = 1,
      .shed_subframes = 0,
      .compression_tb_failures = 3853,
      .quarantined_cell_ttis = 0,
      .ladder_rung = 4,
      .ladder_transitions = 4,
      .compute_outage_jobs = 7224,
      .compute_outage_tbs = 6413,
      .compute_outage_ratio = 0.26193843141520723,
      .effort_capped_tbs = 2366,
      .decode_iterations_needed = 54267,
      .decode_iterations_realized = 45583,
      .offered_tb_bits = 524843744,
      .delivered_tb_bits = 512131920,
      .peak_compute_pressure = 4.7894304533333356,
      .migrations_started = 32,
      .migrations_committed = 21,
      .migrations_aborted = 0,
      .migrations_rolled_back = 0,
      .migrations_taken_over = 0,
      .migration_retries = 4,
      .migrations_deferred = 0,
      .migration_deadline_expired = 0,
      .migration_stale_messages = 0,
      .migration_blackout_ttis = 62,
      .migration_dual_executions = 0,
      .mean_handoff_latency_ms = 29.303012428571428,
  };
  expect_golden(d.kpis(), g);
}

}  // namespace
}  // namespace pran::core
