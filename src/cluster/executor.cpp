#include "cluster/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::cluster {

namespace {

void tally(Executor::Stats& st, const JobOutcome& o) noexcept {
  if (o.dropped) {
    ++st.dropped;
    return;
  }
  if (o.compute_outage) {
    ++st.compute_outages;
    return;
  }
  ++st.completed;
  if (o.missed_deadline()) ++st.missed;
  st.total_busy_seconds += sim::to_seconds(o.finish - o.start) * o.cores_used;
}

}  // namespace

const char* sched_policy_name(SchedPolicy p) noexcept {
  switch (p) {
    case SchedPolicy::kEdf:
      return "edf";
    case SchedPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

Executor::Executor(sim::Engine& engine, std::vector<ServerSpec> specs,
                   SchedPolicy policy)
    : engine_(engine), policy_(policy) {
  PRAN_REQUIRE(!specs.empty(), "executor needs at least one server");
  servers_.reserve(specs.size());
  for (auto& spec : specs) {
    PRAN_REQUIRE(spec.cores >= 1, "server needs at least one core");
    PRAN_REQUIRE(spec.gops_per_core > 0.0, "core capacity must be positive");
    servers_.push_back(Server{std::move(spec), false, 1.0, {}, {}, {}});
  }
}

Executor::Server& Executor::server(int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return servers_[static_cast<std::size_t>(server_id)];
}

const Executor::Server& Executor::server(int server_id) const {
  PRAN_REQUIRE(server_id >= 0 && server_id < num_servers(),
               "unknown server id");
  return servers_[static_cast<std::size_t>(server_id)];
}

const ServerSpec& Executor::spec(int server_id) const {
  return server(server_id).spec;
}

bool Executor::is_failed(int server_id) const {
  return server(server_id).failed;
}

sim::Time Executor::exec_time(const Server& s, const lte::SubframeJob& job,
                              int width) const {
  // Code blocks decode independently, so fan-out is near-linear; the
  // residual serial part (FFT, MAC) is folded into the same scaling as a
  // deliberate simplification (documented in DESIGN.md).
  const double seconds =
      job.total_gops() /
      (s.spec.gops_per_core * s.speed_factor * static_cast<double>(width));
  return static_cast<sim::Time>(std::llround(seconds * 1e9));
}

int Executor::free_cores(const Server& s) const {
  int used = 0;
  for (const auto& r : s.running) used += r.width;
  return s.spec.cores - used;
}

void Executor::submit(int server_id, const lte::SubframeJob& job) {
  (void)server(server_id);  // validate id now, not at arrival
  const std::uint32_t slot = park(server_id, submit_seq_++, job);
  const sim::Time arrival = std::max(job.release, engine_.now());
  engine_.schedule_at(arrival, [this, slot] { on_arrival(slot); });
}

std::uint32_t Executor::park(int server_id, std::uint64_t seq,
                             const lte::SubframeJob& job) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Parked& p = slab_[slot];
  p.job = job;
  p.seq = seq;
  p.server_id = server_id;
  return slot;
}

JobOutcome Executor::release(std::uint32_t slot) {
  Parked& p = slab_[slot];
  JobOutcome outcome;
  outcome.job = p.job;
  outcome.server_id = p.server_id;
  ++p.generation;  // events still naming the old generation go stale
  free_slots_.push_back(slot);
  return outcome;
}

void Executor::on_arrival(std::uint32_t slot) {
  const Parked& p = slab_[slot];
  const int server_id = p.server_id;
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  if (s.failed) {
    JobOutcome outcome = release(slot);
    outcome.dropped = true;
    record(outcome);
    return;
  }
  s.pending.push_back(Pending{p.job.deadline, p.seq, slot});
  dispatch(server_id);
}

void Executor::dispatch(int server_id) {
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  while (!s.failed && !s.pending.empty() && free_cores(s) >= 1) {
    auto pick = s.pending.begin();
    if (policy_ == SchedPolicy::kEdf) {
      for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
        if (it->deadline < pick->deadline ||
            (it->deadline == pick->deadline && it->seq < pick->seq))
          pick = it;
      }
    }  // FIFO: arrival order == queue order, so front() is correct.
    const std::uint32_t slot = pick->slot;
    s.pending.erase(pick);
    start_job(server_id, slot);
  }
}

void Executor::start_job(int server_id, std::uint32_t slot) {
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  const lte::SubframeJob& job = slab_[slot].job;
  const int width = std::max(
      1, std::min({job.parallelism, s.spec.max_job_parallelism,
                   free_cores(s)}));
  const sim::Time duration = exec_time(s, job, width);
  const SlotRef ref{slot, slab_[slot].generation};
  engine_.schedule_in(duration, [this, ref] { on_job_done(ref); });
  s.running.push_back(Running{slot, width, engine_.now()});
}

void Executor::on_job_done(SlotRef ref) {
  const Parked& p = slab_[ref.slot];
  if (p.generation != ref.generation) return;  // dropped by a failure
  const int server_id = p.server_id;
  Server& s = servers_[static_cast<std::size_t>(server_id)];
  std::size_t i = 0;
  while (i < s.running.size() && s.running[i].slot != ref.slot) ++i;
  PRAN_CHECK(i < s.running.size(), "completion with no running job");

  const Running done = s.running[i];
  s.running.erase(s.running.begin() + static_cast<std::ptrdiff_t>(i));
  JobOutcome outcome = release(ref.slot);
  outcome.start = done.start;
  outcome.finish = engine_.now();
  outcome.cores_used = done.width;
  record(outcome);
  dispatch(server_id);
}

void Executor::fail_server(int server_id) {
  Server& s = server(server_id);
  PRAN_REQUIRE(!s.failed, "server is already failed");
  s.failed = true;

  // Drop the waiting queue. Callbacks may submit elsewhere but never touch
  // this server's queues, which stay put until cleared.
  for (const Pending& p : s.pending) {
    JobOutcome outcome = release(p.slot);
    outcome.dropped = true;
    record(outcome);
  }
  s.pending.clear();

  // Abort in-flight jobs; releasing their slots makes their completion
  // events stale.
  for (const Running& r : s.running) {
    JobOutcome outcome = release(r.slot);
    outcome.start = r.start;
    outcome.dropped = true;
    record(outcome);
  }
  s.running.clear();
}

void Executor::restore_server(int server_id) {
  Server& s = server(server_id);
  PRAN_REQUIRE(s.failed, "server is not failed");
  s.failed = false;
}

void Executor::degrade_server(int server_id, double factor) {
  PRAN_REQUIRE(factor > 0.0 && factor <= 1.0,
               "degrade factor outside (0, 1]");
  Server& s = server(server_id);
  PRAN_REQUIRE(!s.failed, "cannot degrade a failed server");
  s.speed_factor = factor;
  // Queued jobs will start at the degraded speed via dispatch(); jobs
  // already running keep their scheduled completion (deliberate: the slow
  // clock only bites work started under it).
}

void Executor::restore_speed(int server_id) {
  server(server_id).speed_factor = 1.0;
}

bool Executor::is_degraded(int server_id) const {
  return server(server_id).speed_factor < 1.0;
}

double Executor::speed_factor(int server_id) const {
  return server(server_id).speed_factor;
}

double Executor::pending_gops(int server_id) const {
  const Server& s = server(server_id);
  double gops = 0.0;
  for (const Pending& p : s.pending) gops += slab_[p.slot].job.total_gops();
  return gops;
}

double Executor::backlog_ttis(int server_id) const {
  const Server& s = server(server_id);
  return pending_gops(server_id) / (s.spec.gops_per_tti() * s.speed_factor);
}

void Executor::record_compute_outage(int server_id,
                                     const lte::SubframeJob& job) {
  (void)server(server_id);  // validate the id
  JobOutcome outcome;
  outcome.job = job;
  outcome.server_id = server_id;
  outcome.compute_outage = true;
  record(outcome);
}

void Executor::record(const JobOutcome& outcome) {
  // Callbacks get the caller's copy, not a reference into the log: a drop
  // callback may record another outcome and reallocate the log.
  tally(stats_, outcome);
  tally(servers_[static_cast<std::size_t>(outcome.server_id)].stats, outcome);
  if (keep_outcomes_) outcomes_.push_back(outcome);
  if (outcome.dropped && on_drop_) on_drop_(outcome.job, outcome.server_id);
  if (on_complete_) on_complete_(outcome);
}

Executor::Stats Executor::stats_for_server(int server_id) const {
  return server(server_id).stats;
}

double Executor::utilization(int server_id, sim::Time window) const {
  PRAN_REQUIRE(window > 0, "window must be positive");
  PRAN_REQUIRE(window >= engine_.now(), "window must reach now()");
  const Server& s = server(server_id);
  // Every recorded job finished by now() <= window, so the tally holds
  // exactly the busy time inside the window; in-flight jobs add theirs up
  // to now().
  double busy = s.stats.total_busy_seconds;
  for (const auto& r : s.running)
    busy += sim::to_seconds(engine_.now() - r.start) * r.width;
  return busy /
         (sim::to_seconds(window) * static_cast<double>(s.spec.cores));
}

}  // namespace pran::cluster
