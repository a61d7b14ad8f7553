// pran_perfbench — the PRAN system benchmark binary.
//
//   pran_perfbench --workload fleet|storm|plan-ffd|plan-milp|decode
//                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload on one thread for about S wall seconds, checks its
// outputs, and prints its metrics; the last stdout line is the JSON
// result. perfbench/run.py builds this binary and calls it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics of BENCHMARK.json, in its order.
constexpr LayerSpec kLayers[] = {
    {"workload.sample_ns", "ns"},
    {"lte.uplink_job_ns", "ns"},
    {"core.pipeline_gops_ns", "ns"},
    {"cluster.submit_ns", "ns"},
    {"sim.run_until_us", "us"},
    {"sim.events_per_tti", "count"},
    {"sim.pending_peak", "count"},
    {"cluster.stats_ms", "ms"},
    {"cluster.outcome_bytes", "B"},
    {"core.kpis_ms", "ms"},
    {"telemetry.counter_inc_ns", "ns"},
    {"telemetry.family_inc_ns", "ns"},
    {"telemetry.span_emit_ns", "ns"},
    {"telemetry.spans_dropped_ratio", "ratio"},
    {"telemetry.label_overflow", "count"},
    {"mac.run_tti_us", "us"},
    {"fronthaul.enqueue_burst_ns", "ns"},
    {"faults.injected", "count"},
    {"core.migrations_committed", "count"},
    {"core.migration_retries", "count"},
    {"core.ladder_transitions", "count"},
    {"fronthaul.late_bursts", "count"},
    {"cluster.compute_outage_ratio", "ratio"},
    {"cluster.dropped", "count"},
    {"sim.goodput", "ratio"},
    {"sim.miss_ratio", "ratio"},
    {"sim.active_servers", "count"},
    {"core.replay_coverage", "ratio"},
    {"trace.overhead_pct", "%"},
    {"core.ffd_place_us", "us"},
    {"core.placement_fits_us", "us"},
    {"lp.build_model_us", "us"},
    {"lp.presolve_us", "us"},
    {"lp.root_lp_ms", "ms"},
    {"lp.root_gap", "ratio"},
    {"lp.milp_nodes_p90", "count"},
    {"lp.pivots_p90", "count"},
    {"coding.turbo_iters_mean", "count"},
    {"coding.lane_occupancy", "ratio"},
    {"coding.lane_refills", "count"},
    {"coding.crc_ns", "ns"},
    {"coding.encode_mbps", "Mbit/s"},
    {"coding.awgn_mbps", "Mbit/s"},
};

void usage() {
  std::fprintf(stderr,
               "usage: pran_perfbench --workload "
               "fleet|storm|plan-ffd|plan-milp|decode --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
}

}  // namespace

void report_layers(Report& report, const std::vector<LayerValue>& measured,
                   std::uint64_t seed) {
  std::map<std::string, double> values;
  for (const LayerValue& v : measured) {
    if (!values.emplace(v.name, v.value).second)
      throw std::logic_error("layer metric reported twice: " + v.name);
  }
  std::set<std::string> known;
  std::map<std::string, double> probed;  // filled on first need
  for (const LayerSpec& l : kLayers) {
    known.insert(l.name);
    const auto it = values.find(l.name);
    if (it != values.end()) {
      report.contract(l.name, it->second, l.unit);
      continue;
    }
    const std::string unit = l.unit;
    if (unit != "ns" && unit != "us" && unit != "ms") {
      report.contract(l.name, 0.0, l.unit);
      continue;
    }
    if (probed.empty()) {
      for (const auto& probe : {probe_deployment_layers, probe_plan_layers,
                                probe_coding_layers})
        for (const LayerValue& v : probe(seed)) probed.emplace(v.name, v.value);
    }
    const auto p = probed.find(l.name);
    if (p == probed.end())
      throw std::logic_error("no probe measures " + std::string(l.name));
    report.contract(l.name, p->second, l.unit);
    report.detail(std::string(l.name) + " (probe)", p->second, l.unit);
  }
  for (const auto& [name, value] : values)
    if (!known.count(name))
      throw std::logic_error("unknown layer metric: " + name);
}

void report_end_to_end(Report& report, const EndToEnd& e) {
  report.contract("setup_s", e.setup_s, "s", e.setup_samples);
  report.contract("throughput", e.throughput, "op/s");
  report.contract("latency_p50_us", e.latency_p50_us, "us",
                  e.latency_samples);
  report.contract("latency_tail_us", e.latency_tail_us, "us",
                  e.latency_samples);
  report.contract("peak_rss_mb", e.peak_rss_mb, "MB");
  report.contract("goodput", e.goodput, "ratio");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "pran_perfbench: built as '%s'; timings are only recorded "
                 "from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value != "0";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0)) {
    usage();
    return 2;
  }
  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"fleet", run_fleet},         {"storm", run_storm},
      {"plan-ffd", run_plan_ffd},   {"plan-milp", run_plan_milp},
      {"decode", run_decode},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    usage();
    return 2;
  }
  Report report;
  try {
    it->second(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pran_perfbench: %s\n", e.what());
    return 1;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "pran_perfbench: no operation was attempted\n");
    return 1;
  }
  report.print(options);
  return 0;
}
