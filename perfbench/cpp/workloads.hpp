#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each one builds its inputs from the seed,
/// times a closed loop of calls into the library for the requested
/// seconds on one thread, checks the outputs, and fills the Report.
///
/// Every run reports the same six contract metrics (the names in
/// BENCHMARK.json), each defined per workload in README.md; the
/// workload's own metric names (cell_ttis_per_s, plan_milp_p90_ms, ...)
/// are printed beside them. A traced run (--trace 1) reports the
/// per-layer set instead.

#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

void run_fleet(const Options& options, Report& report);
void run_storm(const Options& options, Report& report);
void run_plan_ffd(const Options& options, Report& report);
void run_plan_milp(const Options& options, Report& report);
void run_decode(const Options& options, Report& report);

/// Adds every per-layer metric of BENCHMARK.json to `report`: the values in
/// `measured` by name. A timed layer the workload does not call is taken
/// from the probes below, so every time in a traced run is a measurement;
/// other metrics of layers the workload bypasses read 0.
struct LayerValue {
  std::string name;
  double value = 0.0;
};
void report_layers(Report& report, const std::vector<LayerValue>& measured,
                   std::uint64_t seed);

/// Per-call times of each module's layers on small inputs drawn from
/// `seed`: a few cells replayed for a few hundred TTIs, one day of 8-cell
/// placement problems, CRC checks of one 4096-bit block.
std::vector<LayerValue> probe_deployment_layers(std::uint64_t seed);
std::vector<LayerValue> probe_plan_layers(std::uint64_t seed);
std::vector<LayerValue> probe_coding_layers(std::uint64_t seed);

/// Adds the six end-to-end contract metrics.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput = 0.0;      ///< Operations per scaled CPU second.
  double latency_p50_us = 0.0;   ///< Per timed call.
  double latency_tail_us = 0.0;  ///< p99 (p90 for plan-milp).
  std::uint64_t latency_samples = 0;
  double peak_rss_mb = 0.0;
  double goodput = 0.0;          ///< Useful share of offered work.
  std::uint64_t setup_samples = 0;
};
void report_end_to_end(Report& report, const EndToEnd& e);

}  // namespace perfbench
