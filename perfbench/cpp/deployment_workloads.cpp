// fleet and storm: whole-system runs of core::Deployment.
//
// The timed loop is a closed loop of Deployment::run_for(1 TTI) calls on
// one thread. A run is a series of episodes of fixed simulated length, each
// on a freshly constructed deployment. The episodes cycle through six
// deployments seeded from the run's seed, and repeat until the requested
// wall seconds have passed (and each deployment has run once). A fixed
// episode length keeps peak memory and the per-episode cost, which grows
// with simulated time today, independent of host speed. A deployment run
// twice must reach the same simulated KPIs both times. Each episode's
// times are scaled to nominal host speed (speed.hpp); the run reports
// their medians over its episodes.
//
// The traced run measures one traced and one untraced episode of the
// first deployment and checks that both reach the same simulated KPIs. In
// the traced episode it replays every TTI's inputs, outside the
// deployment, through the same public layers the deployment's tick uses —
// traffic sampling or the MAC, the subframe factory, the pipeline cost,
// the shared fronthaul, and a standalone executor and engine fed with the
// live deployment's placement — and times each layer with a span.

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cluster/executor.hpp"
#include "core/deployment.hpp"
#include "faults/fronthaul.hpp"
#include "fronthaul/codec.hpp"
#include "fronthaul/link.hpp"
#include "lte/subframe.hpp"
#include "mac/cell_mac.hpp"
#include "sim/engine.hpp"
#include "speed.hpp"
#include "telemetry/family.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "tracer.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pran;

namespace {

struct Scenario {
  const char* name;
  core::DeploymentConfig config;
  std::int64_t episode_ttis;
  /// Per-TTI percentile reported as latency_tail_us.
  double tail_quantile;
};

Scenario fleet_scenario(std::uint64_t seed) {
  core::DeploymentConfig c;
  c.num_cells = 256;
  c.num_servers = 128;
  c.harq_retransmissions = true;
  c.placer = core::DeploymentConfig::PlacerKind::kFirstFit;  // sticky FFD
  c.seed = seed;
  return {"fleet", c, 2000, 0.99};
}

Scenario storm_scenario(std::uint64_t seed) {
  core::DeploymentConfig c;
  c.num_cells = 64;
  c.num_servers = 32;
  c.seed = seed;
  c.traffic_source = core::DeploymentConfig::TrafficSource::kMacScheduled;
  c.harq_retransmissions = true;
  // Morning ramp at 2 diurnal hours per simulated second, re-planned by a
  // non-sticky placer every 250 ms: the demand order reshuffles each
  // epoch, so every replan moves cells.
  c.start_hour = 6.0;
  c.day_compression = 7200;
  c.epoch = 250 * sim::kMillisecond;
  c.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  // One impaired fibre for all 64 cells (2:1 compressed CPRI).
  c.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{200e9}, 25 * sim::kMicrosecond};
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
  // Two-phase migration over a lossy, jittery control plane.
  c.migration.enabled = true;
  c.migration.control_plane.loss_probability = 0.1;
  c.migration.control_plane.max_jitter = 1 * sim::kMillisecond;
  // Crash and straggler faults, found by heartbeats.
  c.stochastic_faults.mtbf_seconds = 4.0;
  c.stochastic_faults.mttr_seconds = 0.15;
  c.stochastic_faults.degrade_probability = 0.3;
  c.heartbeat_period = 5 * sim::kMillisecond;
  // The slowest 1% of storm's TTIs are its fault and migration events,
  // whose number differs from seed to seed; p95 follows the tick itself.
  return {"storm", c, 3000, 0.95};
}

/// FNV-1a over raw bytes, for digests of simulated results.
class Digest {
 public:
  template <typename T>
  Digest& add(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
    return *this;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Digest of every simulated KPI (host-time fields excluded).
std::uint64_t kpi_digest(const core::DeploymentKpis& k) {
  Digest d;
  d.add(k.subframes_processed).add(k.deadline_misses).add(k.dropped);
  d.add(k.miss_ratio).add(k.migrations).add(k.mean_active_servers);
  d.add(k.failover_outage_cells).add(k.infeasible_epochs);
  d.add(k.shed_cell_epochs).add(k.outage_cell_ttis);
  d.add(k.harq_retransmissions).add(k.lost_transport_blocks);
  d.add(k.energy_joules).add(k.faults_injected).add(k.degrade_events);
  d.add(k.fault_detections).add(k.mean_detection_latency_ms);
  d.add(k.blind_window_drops).add(k.quarantine_events);
  d.add(k.fronthaul_lost_bursts).add(k.fronthaul_late_bursts);
  d.add(k.fronthaul_brownouts).add(k.shed_subframes);
  d.add(k.compression_tb_failures).add(k.quarantined_cell_ttis);
  d.add(k.ladder_rung).add(k.ladder_transitions).add(k.compute_outage_jobs);
  d.add(k.compute_outage_tbs).add(k.compute_outage_ratio);
  d.add(k.effort_capped_tbs).add(k.decode_iterations_needed);
  d.add(k.decode_iterations_realized).add(k.offered_tb_bits);
  d.add(k.delivered_tb_bits).add(k.peak_compute_pressure);
  d.add(k.migrations_started).add(k.migrations_committed);
  d.add(k.migrations_aborted).add(k.migrations_rolled_back);
  d.add(k.migrations_taken_over).add(k.migration_retries);
  d.add(k.migrations_deferred).add(k.migration_deadline_expired);
  d.add(k.migration_stale_messages).add(k.migration_blackout_ttis);
  d.add(k.migration_dual_executions).add(k.mean_handoff_latency_ms);
  return d.value();
}

double goodput(const core::DeploymentKpis& k) {
  return k.offered_tb_bits > 0.0 ? k.delivered_tb_bits / k.offered_tb_bits
                                 : 0.0;
}

/// Invariants every episode must keep; returns "" or the broken one.
std::string broken_invariant(const core::DeploymentKpis& k,
                             std::uint64_t cell_ttis) {
  if (k.migration_dual_executions != 0)
    return "a cell-TTI was granted to two servers";
  if (k.subframes_processed == 0) return "no subframe completed";
  if (k.subframes_processed + k.dropped + k.compute_outage_jobs >
      cell_ttis * 4)
    return "more outcomes than cell-TTIs and their HARQ retries";
  // Not capped at 1: with the ladder's compression rung on, a transport
  // block failed by the EVM penalty still counts as delivered when its
  // decode finishes in time, and again when its retransmission does.
  if (!(goodput(k) > 0.0)) return "nothing delivered";
  if (!(k.miss_ratio >= 0.0 && k.miss_ratio <= 1.0))
    return "miss ratio outside [0, 1]";
  return "";
}

struct Episode {
  core::DeploymentKpis kpis;
  std::uint64_t digest = 0;
  double loop_s = 0.0;     ///< The run_for calls and the final kpis().
  double run_for_s = 0.0;  ///< The run_for calls alone.
  double tti_p50_us = 0.0;
  double tti_tail_us = 0.0;  ///< At the scenario's tail quantile.
  double tti_p99_us = 0.0;
};

/// Runs one episode of `s` on `d`, one run_for call per TTI, then reads
/// its KPIs.
Episode run_episode(core::Deployment& d, const Scenario& s) {
  const std::int64_t ttis = s.episode_ttis;
  Episode e;
  std::vector<double> tti_us;
  tti_us.reserve(static_cast<std::size_t>(ttis));
  for (std::int64_t t = 0; t < ttis; ++t) {
    const double t0 = cpu_seconds();
    d.run_for(sim::kTti);
    const double dt = cpu_seconds() - t0;
    tti_us.push_back(dt * 1e6);
    e.run_for_s += dt;
  }
  const double t0 = cpu_seconds();
  e.kpis = d.kpis();
  e.loop_s = e.run_for_s + (cpu_seconds() - t0);
  e.digest = kpi_digest(e.kpis);
  e.tti_p50_us = percentile(tti_us, 0.50);
  e.tti_tail_us = percentile(tti_us, s.tail_quantile);
  e.tti_p99_us = percentile(tti_us, 0.99);
  return e;
}

double sim_miss_ratio(const core::DeploymentKpis& k) {
  const auto jobs = k.subframes_processed + k.dropped;
  return jobs ? static_cast<double>(k.deadline_misses + k.dropped) /
                    static_cast<double>(jobs)
              : 0.0;
}

/// A run cycles through this many deployments drawn from its seed, so its
/// simulated results average over several fleets and fault histories.
constexpr std::uint64_t kDeployments = 6;

using MakeScenario = Scenario (*)(std::uint64_t seed);

std::uint64_t deployment_seed(std::uint64_t run_seed, std::uint64_t j) {
  return run_seed * kDeployments + j;
}

void run_timed(const Options& options, MakeScenario make, Report& report) {
  std::vector<Scenario> scenarios;
  for (std::uint64_t j = 0; j < kDeployments; ++j)
    scenarios.push_back(make(deployment_seed(options.seed, j)));
  const char* name = scenarios.front().name;
  // The host speed is sampled between episodes, so nothing but the
  // deployment runs inside one. An episode is scaled by the mean of the
  // factors sampled before and after it.
  HostSpeed speed;
  std::vector<double> setup_s, rates, p50s, tails, p99s;
  std::uint64_t cell_ttis = 0;
  std::vector<std::optional<Episode>> first(kDeployments);
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    const std::size_t j = i++ % kDeployments;
    const Scenario& s = scenarios[j];
    const std::uint64_t episode_cell_ttis =
        static_cast<std::uint64_t>(s.config.num_cells) *
        static_cast<std::uint64_t>(s.episode_ttis);
    try {
      const double before = speed.factor();
      const double t0 = cpu_seconds();
      auto d = std::make_unique<core::Deployment>(s.config);
      setup_s.push_back(before * (cpu_seconds() - t0));
      const Episode e = run_episode(*d, s);
      d.reset();
      speed.resample();
      const double f = 0.5 * (before + speed.factor());
      rates.push_back(static_cast<double>(episode_cell_ttis) /
                      (f * e.loop_s));
      p50s.push_back(f * e.tti_p50_us);
      tails.push_back(f * e.tti_tail_us);
      p99s.push_back(f * e.tti_p99_us);
      cell_ttis += episode_cell_ttis;
      if (!first[j]) first[j] = e;
      std::string why = broken_invariant(e.kpis, episode_cell_ttis);
      if (why.empty() && e.digest != first[j]->digest)
        why = "simulated KPIs differ between episodes of one seed";
      report.attempt(why.empty(), std::string(name) + " episode: " + why);
    } catch (const std::exception& ex) {
      report.attempt(false, std::string(name) + " episode threw: " +
                                ex.what());
    }
  } while (seconds_since(start) < options.seconds || i < kDeployments);

  double sim_goodput = 0.0, miss = 0.0, servers = 0.0, faults = 0.0,
         committed = 0.0;
  for (const auto& f : first) {
    if (!f) return;  // a deployment never finished an episode
    sim_goodput += goodput(f->kpis) / kDeployments;
    miss += sim_miss_ratio(f->kpis) / kDeployments;
    servers += f->kpis.mean_active_servers / kDeployments;
    faults += f->kpis.faults_injected / static_cast<double>(kDeployments);
    committed += static_cast<double>(f->kpis.migrations_committed) /
                 kDeployments;
  }
  EndToEnd e;
  e.setup_s = median(setup_s);
  e.setup_samples = setup_s.size();
  e.throughput = median(rates);
  e.latency_p50_us = median(p50s);
  e.latency_tail_us = median(tails);
  e.latency_samples =
      static_cast<std::uint64_t>(scenarios.front().episode_ttis) * p50s.size();
  e.peak_rss_mb = peak_rss_mb();
  e.goodput = sim_goodput;

  report.detail("episodes", static_cast<double>(report.attempted()), "count");
  report.detail("cell_ttis_per_s", e.throughput, "1/s", cell_ttis);
  report.detail("tti_wall_p50_us", e.latency_p50_us, "us", e.latency_samples);
  report.detail("tti_wall_p99_us", median(p99s), "us", e.latency_samples);
  report.detail("peak_rss_mb", e.peak_rss_mb, "MB");
  report.detail("setup_s", e.setup_s, "s", setup_s.size());
  report.detail("host_slowdown", speed.slowdown(), "ratio");
  report.detail("sim_goodput", sim_goodput, "ratio");
  report.detail("sim_miss_ratio", miss, "ratio");
  report.detail("sim_active_servers", servers, "count");
  report.detail("faults_per_episode", faults, "count");
  report.detail("migrations_committed_per_episode", committed, "count");
  report_end_to_end(report, e);
}

/// The outside-in replay of one deployment's per-TTI work.
class Replay {
 public:
  Replay(const core::DeploymentConfig& config, Tracer& tracer)
      : tracer_(tracer),
        fleet_(workload::make_fleet(config.num_cells, config.seed,
                                    lte::CellConfig{},
                                    config.peak_prb_utilization)),
        pipeline_(core::Pipeline::standard_uplink()),
        registry_(),
        family_(registry_, "perfbench.cell_subframes", "cell"),
        counter_(registry_.counter("perfbench.subframes")),
        span_name_(spans_.intern("subframe_job")) {
    const sim::Time fh = config.shared_fronthaul
                             ? config.shared_fronthaul->propagation
                             : config.fronthaul_latency;
    for (const auto& cell : fleet_.cells)
      factories_.emplace_back(cell.site().cell_id, cell.site().config,
                              lte::CostModel{}, fh);
    std::vector<cluster::ServerSpec> specs;
    for (int s = 0; s < config.num_servers; ++s) {
      cluster::ServerSpec spec = config.server;
      spec.name = "server-" + std::to_string(s);
      specs.push_back(spec);
    }
    executor_ =
        std::make_unique<cluster::Executor>(engine_, specs, config.policy);
    if (config.traffic_source ==
        core::DeploymentConfig::TrafficSource::kMacScheduled) {
      for (const auto& cell : fleet_.cells) {
        mac::CellMacConfig mc;
        mc.cell = cell.site().config;
        mc.num_ues = config.mac_ues_per_cell;
        mc.scheduler = config.mac_scheduler;
        mc.traffic = mac::TrafficKind::kPoisson;
        mc.mean_arrival_bps = config.mac_ue_peak_bps;
        mc.radius_m = cell.site().radius_m;
        mc.min_distance_m = cell.site().min_distance_m;
        mc.seed = config.seed * 7919 +
                  static_cast<std::uint64_t>(cell.site().cell_id);
        macs_.emplace_back(mc);
      }
    }
    if (config.shared_fronthaul) {
      link_.emplace(*config.shared_fronthaul);
      link_->set_late_threshold(config.fronthaul_late_threshold);
      burst_bits_ = fronthaul::subframe_bits(
          units::Hertz{30.72e6}, fronthaul::kCpriSampleBits,
          lte::CellConfig{}.antennas, config.fronthaul_compression);
      if (config.fronthaul_impairments.enabled()) {
        impairments_.emplace(config.fronthaul_impairments,
                             config.seed * 0x9E3779B9u + 0xF0);
        link_->set_impairment_hook([this](sim::Time ready, units::Bits b) {
          return impairments_->apply(ready, b);
        });
      }
    }
    allocs_.resize(fleet_.cells.size());
    jobs_.resize(fleet_.cells.size());
    names_.sample = tracer.intern("workload.sample");
    names_.mac = tracer.intern("mac.run_tti");
    names_.job = tracer.intern("lte.uplink_job");
    names_.gops = tracer.intern("core.pipeline_gops");
    names_.burst = tracer.intern("fronthaul.enqueue_burst");
    names_.submit = tracer.intern("cluster.submit");
    names_.counter = tracer.intern("telemetry.counter_inc");
    names_.family = tracer.intern("telemetry.family_inc");
    names_.span = tracer.intern("telemetry.span_emit");
    names_.run = tracer.intern("sim.run_until");
    names_.replay = tracer.intern("replay");
  }
  // The executor and the fronthaul hook hold pointers into this object.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replays TTI `tti` against the live deployment's placement.
  void tick(std::int64_t tti, double hour, const std::vector<int>& placement) {
    Tracer::Scope all(&tracer_, names_.replay, tti);
    const std::size_t n = fleet_.cells.size();
    if (macs_.empty()) {
      Tracer::Scope sp(&tracer_, names_.sample, tti);
      for (std::size_t c = 0; c < n; ++c)
        allocs_[c] = fleet_.cells[c].sample_subframe(hour);
    } else {
      Tracer::Scope sp(&tracer_, names_.mac, tti);
      for (std::size_t c = 0; c < n; ++c) {
        macs_[c].set_load_scale(fleet_.cells[c].profile().at(hour));
        allocs_[c] = macs_[c].run_tti();
      }
    }
    {
      Tracer::Scope sp(&tracer_, names_.job, tti);
      for (std::size_t c = 0; c < n; ++c)
        jobs_[c] = factories_[c].uplink_job(tti, allocs_[c]);
    }
    {
      Tracer::Scope sp(&tracer_, names_.gops, tti);
      for (std::size_t c = 0; c < n; ++c)
        gops_sum_ += pipeline_.subframe_gops(fleet_.cells[c].site().config,
                                             allocs_[c]);
    }
    std::vector<bool> lost(n, false);
    if (link_) {
      Tracer::Scope sp(&tracer_, names_.burst, tti);
      const sim::Time ready = (tti + 1) * sim::kTti;
      for (std::size_t c = 0; c < n; ++c) {
        const fronthaul::BurstOutcome o = link_->enqueue_burst(ready,
                                                               burst_bits_);
        lost[c] = o.lost;
        if (!o.lost) jobs_[c].release = std::max(jobs_[c].release, o.arrival);
      }
    }
    {
      Tracer::Scope sp(&tracer_, names_.submit, tti);
      for (std::size_t c = 0; c < n; ++c) {
        const int server = placement[c];
        if (server < 0 || lost[c]) continue;
        executor_->submit(server, jobs_[c]);
        ++submits_;
      }
    }
    pending_peak_ = std::max(pending_peak_, engine_.pending_count());
    {
      Tracer::Scope sp(&tracer_, names_.counter, tti);
      for (std::size_t c = 0; c < n; ++c) registry_.add(counter_);
    }
    {
      Tracer::Scope sp(&tracer_, names_.family, tti);
      for (std::size_t c = 0; c < n; ++c) family_.inc(c);
    }
    {
      Tracer::Scope sp(&tracer_, names_.span, tti);
      for (std::size_t c = 0; c < n; ++c)
        spans_.emit_sim(span_name_, placement[c], tti * sim::kTti,
                        sim::kTti / 2, static_cast<std::int64_t>(c), tti);
    }
    {
      Tracer::Scope sp(&tracer_, names_.run, tti);
      engine_.run_until((tti + 1) * sim::kTti);
    }
    ++ttis_;
  }

  std::size_t cells() const noexcept { return fleet_.cells.size(); }
  std::int64_t ttis() const noexcept { return ttis_; }
  std::uint64_t events() const noexcept { return engine_.executed_events(); }
  std::size_t pending_peak() const noexcept { return pending_peak_; }
  std::uint64_t submits() const noexcept { return submits_; }
  bool uses_mac() const noexcept { return !macs_.empty(); }
  bool uses_link() const noexcept { return link_.has_value(); }

 private:
  struct Names {
    std::uint32_t sample, mac, job, gops, burst, submit, counter, family,
        span, run, replay;
  };
  Tracer& tracer_;
  workload::Fleet fleet_;
  std::vector<mac::CellMac> macs_;
  std::vector<lte::SubframeFactory> factories_;
  core::Pipeline pipeline_;
  sim::Engine engine_;
  std::unique_ptr<cluster::Executor> executor_;
  std::optional<fronthaul::FronthaulLink> link_;
  std::optional<faults::FronthaulImpairments> impairments_;
  units::Bits burst_bits_{0};
  telemetry::MetricsRegistry registry_;
  telemetry::CounterFamily family_;
  telemetry::CounterId counter_;
  telemetry::SpanCollector spans_;
  std::uint32_t span_name_;
  std::vector<std::vector<lte::Allocation>> allocs_;
  std::vector<lte::SubframeJob> jobs_;
  Names names_{};
  std::int64_t ttis_ = 0;
  std::size_t pending_peak_ = 0;
  std::uint64_t submits_ = 0;
  double gops_sum_ = 0.0;  ///< Keeps the pipeline's results live.
};

/// Per-call self times and engine counts of a finished replay.
std::vector<LayerValue> replay_layers(const Tracer& tracer,
                                      const Replay& replay) {
  const double ttis = static_cast<double>(replay.ttis());
  const double calls = ttis * static_cast<double>(replay.cells());
  const auto per_call_ns = [&](const char* name) {
    return tracer.layer(name).self_ns / calls;
  };
  std::vector<LayerValue> v;
  if (replay.uses_mac())
    v.push_back({"mac.run_tti_us", per_call_ns("mac.run_tti") / 1e3});
  else
    v.push_back({"workload.sample_ns", per_call_ns("workload.sample")});
  if (replay.uses_link())
    v.push_back({"fronthaul.enqueue_burst_ns",
                 per_call_ns("fronthaul.enqueue_burst")});
  v.push_back({"lte.uplink_job_ns", per_call_ns("lte.uplink_job")});
  v.push_back({"core.pipeline_gops_ns", per_call_ns("core.pipeline_gops")});
  v.push_back({"cluster.submit_ns",
               tracer.layer("cluster.submit").self_ns /
                   static_cast<double>(std::max<std::uint64_t>(
                       replay.submits(), 1))});
  v.push_back({"sim.run_until_us",
               tracer.layer("sim.run_until").self_ns / ttis / 1e3});
  v.push_back({"sim.events_per_tti",
               static_cast<double>(replay.events()) / ttis});
  v.push_back({"sim.pending_peak", static_cast<double>(replay.pending_peak())});
  v.push_back({"telemetry.counter_inc_ns",
               per_call_ns("telemetry.counter_inc")});
  v.push_back({"telemetry.family_inc_ns", per_call_ns("telemetry.family_inc")});
  v.push_back({"telemetry.span_emit_ns", per_call_ns("telemetry.span_emit")});
  return v;
}

/// Replayed self time per TTI, over every replay span.
double replay_self_us_per_tti(const Tracer& tracer, const Replay& replay) {
  double self_ns = 0.0;
  for (const char* n :
       {"workload.sample", "mac.run_tti", "lte.uplink_job",
        "core.pipeline_gops", "fronthaul.enqueue_burst", "cluster.submit",
        "telemetry.counter_inc", "telemetry.family_inc",
        "telemetry.span_emit", "sim.run_until", "replay"})
    self_ns += tracer.layer(n).self_ns;
  return self_ns / static_cast<double>(replay.ttis()) / 1e3;
}

std::uint64_t label_overflow() {
  const auto snap = telemetry::registry().snapshot();
  for (const auto& c : snap.counters)
    if (c.name == "telemetry.label_overflow") return c.value;
  return 0;
}

void run_traced(const Options& options, const Scenario& s, Report& report) {
  const std::uint64_t cell_ttis = static_cast<std::uint64_t>(
                                      s.config.num_cells) *
                                  static_cast<std::uint64_t>(s.episode_ttis);
  // The traced episode runs first, while the global span ring is still
  // empty, so the ring's drop ratio describes this episode alone.
  Tracer tracer;
  const std::uint32_t run_for = tracer.intern("deployment.run_for");
  const std::uint32_t stats = tracer.intern("cluster.stats");
  const std::uint32_t kpis_name = tracer.intern("core.kpis");
  const std::uint64_t spans_recorded0 = telemetry::spans().recorded();
  const std::uint64_t spans_dropped0 = telemetry::spans().dropped();
  const std::uint64_t overflow0 = label_overflow();
  Replay replay(s.config, tracer);
  std::vector<double> stats_ms;
  core::DeploymentKpis k;
  double outcome_bytes = 0.0;
  {
    core::Deployment d(s.config);
    const std::int64_t epoch_ttis = s.config.epoch / sim::kTti;
    for (std::int64_t t = 0; t < s.episode_ttis; ++t) {
      const double hour = d.hour_at(d.now());
      {
        Tracer::Scope sp(&tracer, run_for, t);
        d.run_for(sim::kTti);
      }
      replay.tick(t, hour, d.controller().placement());
      if ((t + 1) % epoch_ttis == 0) {
        // Once per epoch, as Deployment::epoch_replan calls it.
        const double t0 = cpu_seconds();
        {
          Tracer::Scope sp(&tracer, stats, t);
          (void)d.executor().stats();
        }
        stats_ms.push_back((cpu_seconds() - t0) * 1e3);
      }
    }
    {
      Tracer::Scope sp(&tracer, kpis_name, s.episode_ttis);
      k = d.kpis();
    }
    outcome_bytes = static_cast<double>(d.executor().outcomes().size() *
                                        sizeof(cluster::JobOutcome));
  }
  const std::uint64_t recorded =
      telemetry::spans().recorded() - spans_recorded0;
  const std::uint64_t dropped = telemetry::spans().dropped() - spans_dropped0;
  const std::uint64_t overflow = label_overflow() - overflow0;
  const std::string why = broken_invariant(k, cell_ttis);
  report.attempt(why.empty(), std::string(s.name) + " traced episode: " + why);

  // Untraced reference episode of the same seed.
  Episode plain;
  {
    core::Deployment d(s.config);
    plain = run_episode(d, s);
  }
  const double tti_p50_us = plain.tti_p50_us;
  report.attempt(kpi_digest(k) == plain.digest,
                 std::string(s.name) +
                     ": traced and untraced episodes reach different "
                     "simulated KPIs");

  const double live_s = tracer.layer("deployment.run_for").total_ns / 1e9;
  const double untraced_s = plain.run_for_s;
  std::vector<LayerValue> v = replay_layers(tracer, replay);
  const double replay_per_tti_us = replay_self_us_per_tti(tracer, replay);
  v.push_back({"cluster.stats_ms", mean(stats_ms)});
  v.push_back({"cluster.outcome_bytes", outcome_bytes});
  v.push_back({"core.kpis_ms", tracer.layer("core.kpis").total_ns / 1e6});
  v.push_back({"telemetry.spans_dropped_ratio",
               recorded ? static_cast<double>(dropped) /
                              static_cast<double>(recorded)
                        : 0.0});
  v.push_back({"telemetry.label_overflow", static_cast<double>(overflow)});
  v.push_back({"faults.injected", static_cast<double>(k.faults_injected)});
  v.push_back({"core.migrations_committed",
               static_cast<double>(k.migrations_committed)});
  v.push_back({"core.migration_retries",
               static_cast<double>(k.migration_retries)});
  v.push_back({"core.ladder_transitions",
               static_cast<double>(k.ladder_transitions)});
  v.push_back({"fronthaul.late_bursts",
               static_cast<double>(k.fronthaul_late_bursts)});
  v.push_back({"cluster.compute_outage_ratio", k.compute_outage_ratio});
  v.push_back({"cluster.dropped", static_cast<double>(k.dropped)});
  v.push_back({"sim.goodput", goodput(k)});
  v.push_back({"sim.miss_ratio", sim_miss_ratio(k)});
  v.push_back({"sim.active_servers", k.mean_active_servers});
  v.push_back({"core.replay_coverage", replay_per_tti_us / tti_p50_us});
  v.push_back({"trace.overhead_pct",
               untraced_s > 0 ? (live_s - untraced_s) / untraced_s * 100.0
                              : 0.0});
  report_layers(report, v, options.seed);

  report.detail("tti_wall_p50_us", tti_p50_us, "us",
                static_cast<std::uint64_t>(s.episode_ttis));
  report.detail("replay_self_per_tti_us", replay_per_tti_us, "us",
                static_cast<std::uint64_t>(replay.ttis()));
  report.detail("spans_recorded", static_cast<double>(tracer.size()), "count");
  report.detail("sim_goodput", goodput(k), "ratio");
  report.detail("sim_miss_ratio", sim_miss_ratio(k), "ratio");
  report.detail("sim_active_servers", k.mean_active_servers, "count");
  tracer.write(options.out_dir + "/" + s.name + "-trace.json");
}

void run_scenario(const Options& options, MakeScenario make,
                  Report& report) {
  if (options.trace)
    run_traced(options, make(deployment_seed(options.seed, 0)), report);
  else
    run_timed(options, make, report);
}

}  // namespace

std::vector<LayerValue> probe_deployment_layers(std::uint64_t seed) {
  constexpr int kCells = 16;
  constexpr int kServers = 8;
  constexpr std::int64_t kTtis = 200;
  std::vector<LayerValue> v;
  // fleet's statistical path and storm's MAC + fronthaul path, each
  // replayed on a few cells spread over a few servers.
  for (Scenario s : {fleet_scenario(seed), storm_scenario(seed)}) {
    s.config.num_cells = kCells;
    s.config.num_servers = kServers;
    Tracer tracer;
    Replay replay(s.config, tracer);
    std::vector<int> placement(kCells);
    for (int c = 0; c < kCells; ++c) placement[c] = c % kServers;
    for (std::int64_t t = 0; t < kTtis; ++t)
      replay.tick(t, s.config.start_hour, placement);
    for (const LayerValue& l : replay_layers(tracer, replay)) v.push_back(l);
  }
  // Executor::stats and Deployment::kpis after a short small-fleet run.
  Scenario s = fleet_scenario(seed);
  s.config.num_cells = kCells;
  s.config.num_servers = kServers;
  core::Deployment d(s.config);
  d.run_for(5 * kTtis * sim::kTti);
  std::vector<double> stats_ms, kpis_ms;
  for (int i = 0; i < 5; ++i) {
    double t0 = cpu_seconds();
    (void)d.executor().stats();
    stats_ms.push_back((cpu_seconds() - t0) * 1e3);
    t0 = cpu_seconds();
    (void)d.kpis();
    kpis_ms.push_back((cpu_seconds() - t0) * 1e3);
  }
  v.push_back({"cluster.stats_ms", median(stats_ms)});
  v.push_back({"core.kpis_ms", median(kpis_ms)});
  return v;
}

void run_fleet(const Options& options, Report& report) {
  run_scenario(options, fleet_scenario, report);
}

void run_storm(const Options& options, Report& report) {
  run_scenario(options, storm_scenario, report);
}

}  // namespace perfbench
