// Tests for the compute-cluster executor.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/executor.hpp"
#include "common/check.hpp"
#include "outcome_log.hpp"

namespace pran::cluster {
namespace {

lte::SubframeJob make_job(int cell, double gops, sim::Time release,
                          sim::Time deadline) {
  lte::SubframeJob job;
  job.cell_id = cell;
  job.cost[lte::Stage::kDecode] = gops;
  job.release = release;
  job.deadline = deadline;
  return job;
}

ServerSpec one_core(double gops = 100.0) {
  return ServerSpec{"s", 1, gops};
}

TEST(Executor, RunsJobToCompletion) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // 0.1 Gop on a 100 GOPS core = 1 ms.
  ex.submit(0, make_job(1, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 1u);
  const auto& o = seen.outcomes[0];
  EXPECT_EQ(o.start, 0);
  EXPECT_EQ(o.finish, sim::kMillisecond);
  EXPECT_FALSE(o.missed_deadline());
  EXPECT_FALSE(o.dropped);
  EXPECT_EQ(ex.stats().completed, 1u);
}

TEST(Executor, HonoursReleaseTime) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  ex.submit(0, make_job(1, 0.05, 3 * sim::kMillisecond, 100 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(seen.outcomes[0].start, 3 * sim::kMillisecond);
}

TEST(Executor, DetectsDeadlineMiss) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // 0.5 Gop = 5 ms, deadline at 3 ms.
  ex.submit(0, make_job(1, 0.5, 0, 3 * sim::kMillisecond));
  engine.run();
  EXPECT_TRUE(seen.outcomes[0].missed_deadline());
  EXPECT_EQ(ex.stats().missed, 1u);
  EXPECT_DOUBLE_EQ(ex.stats().miss_ratio(), 1.0);
}

TEST(Executor, EdfOrdersByDeadline) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // Occupy the core, then queue two jobs with inverted deadline order.
  ex.submit(0, make_job(0, 0.1, 0, 50 * sim::kMillisecond));
  ex.submit(0, make_job(1, 0.1, 0, 40 * sim::kMillisecond));  // later deadline
  ex.submit(0, make_job(2, 0.1, 0, 5 * sim::kMillisecond));   // earliest
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 3u);
  EXPECT_EQ(seen.outcomes[0].job.cell_id, 0);  // was running
  EXPECT_EQ(seen.outcomes[1].job.cell_id, 2);  // EDF picks earliest deadline
  EXPECT_EQ(seen.outcomes[2].job.cell_id, 1);
}

TEST(Executor, FifoIgnoresDeadlines) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kFifo);
  OutcomeLog seen(ex);
  ex.submit(0, make_job(0, 0.1, 0, 50 * sim::kMillisecond));
  ex.submit(0, make_job(1, 0.1, 0, 40 * sim::kMillisecond));
  ex.submit(0, make_job(2, 0.1, 0, 5 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(seen.outcomes[1].job.cell_id, 1);
  EXPECT_EQ(seen.outcomes[2].job.cell_id, 2);
}

TEST(Executor, MultiCoreRunsInParallel) {
  sim::Engine engine;
  Executor ex(engine, {ServerSpec{"s", 2, 100.0}}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  for (int i = 0; i < 2; ++i)
    ex.submit(0, make_job(i, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  // Both 1 ms jobs finish at t=1ms on separate cores.
  EXPECT_EQ(seen.outcomes[0].finish, sim::kMillisecond);
  EXPECT_EQ(seen.outcomes[1].finish, sim::kMillisecond);
}

TEST(Executor, QueueingDelaysSecondJobOnOneCore) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  for (int i = 0; i < 2; ++i)
    ex.submit(0, make_job(i, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(seen.outcomes[1].finish, 2 * sim::kMillisecond);
  EXPECT_EQ(seen.outcomes[1].latency(), 2 * sim::kMillisecond);
}

TEST(Executor, FailureDropsQueuedAndRunning) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  int drops = 0;
  ex.set_drop_callback([&](const lte::SubframeJob&, int) { ++drops; });
  ex.submit(0, make_job(0, 1.0, 0, 50 * sim::kMillisecond));  // 10 ms run
  ex.submit(0, make_job(1, 0.1, 0, 50 * sim::kMillisecond));  // queued
  engine.schedule_at(2 * sim::kMillisecond, [&] { ex.fail_server(0); });
  engine.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(ex.stats().dropped, 2u);
  EXPECT_EQ(ex.stats().completed, 0u);
  EXPECT_TRUE(ex.is_failed(0));
}

TEST(Executor, SubmitToFailedServerDropsImmediately) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.fail_server(0);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.stats().dropped, 1u);
}

TEST(Executor, RestoreAllowsNewWork) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  ex.fail_server(0);
  ex.restore_server(0);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(ex.stats().completed, 1u);
  EXPECT_THROW(ex.restore_server(0), pran::ContractViolation);
}

TEST(Executor, StaleCompletionAfterFailAndRestoreIsIgnored) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // 1 ms job from t=0; the failure at 0.5 ms drops it, but its completion
  // event still fires at 1 ms — while the second job holds the core.
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  engine.schedule_at(sim::kMillisecond / 2, [&] { ex.fail_server(0); });
  const sim::Time restart = 6 * sim::kMillisecond / 10;
  engine.schedule_at(restart, [&] {
    ex.restore_server(0);
    ex.submit(0, make_job(1, 0.1, restart, 10 * sim::kMillisecond));
  });
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 2u);
  EXPECT_TRUE(seen.outcomes[0].dropped);
  EXPECT_EQ(seen.outcomes[1].start, restart);
  EXPECT_EQ(seen.outcomes[1].finish, restart + sim::kMillisecond);
  const auto stats = ex.stats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_DOUBLE_EQ(stats.total_busy_seconds, 1e-3);
}

TEST(Executor, FailTwiceIsRejected) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  ex.fail_server(0);
  EXPECT_THROW(ex.fail_server(0), pran::ContractViolation);
}

TEST(Executor, CompletionCallbackFires) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  int completions = 0;
  ex.set_completion_callback([&](const JobOutcome& o) {
    ++completions;
    EXPECT_FALSE(o.dropped);
  });
  ex.submit(0, make_job(0, 0.01, 0, 10 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(Executor, UtilizationAccountsBusyTime) {
  sim::Engine engine;
  Executor ex(engine, {ServerSpec{"s", 2, 100.0}}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.2, 0, 100 * sim::kMillisecond));  // 2 ms
  ex.submit(0, make_job(1, 0.2, 0, 100 * sim::kMillisecond));  // 2 ms
  engine.run();
  // 4 ms of core time over a 10 ms window on 2 cores = 0.2.
  EXPECT_NEAR(ex.utilization(0, 10 * sim::kMillisecond), 0.2, 1e-9);
}

TEST(Executor, UtilizationRejectsWindowBeforeNow) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.2, 0, 100 * sim::kMillisecond));  // 2 ms
  engine.run();
  // The busy tally holds whole jobs, so it cannot be cut at a past edge.
  EXPECT_THROW(ex.utilization(0, sim::kMillisecond), pran::ContractViolation);
  EXPECT_DOUBLE_EQ(ex.utilization(0, 2 * sim::kMillisecond), 1.0);
}

TEST(Executor, PerServerStats) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0), one_core(100.0)}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));
  ex.submit(1, make_job(1, 0.5, 0, sim::kMillisecond));  // will miss
  engine.run();
  EXPECT_EQ(ex.stats_for_server(0).completed, 1u);
  EXPECT_EQ(ex.stats_for_server(0).missed, 0u);
  EXPECT_EQ(ex.stats_for_server(1).missed, 1u);
}

TEST(Executor, BacklogTtisTracksPendingWork) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 0.0);
  // Three 0.05 Gop jobs: one starts on the single core, two stay queued.
  for (int i = 0; i < 3; ++i)
    ex.submit(0, make_job(i, 0.05, 0, 50 * sim::kMillisecond));
  engine.run_until(1);
  // 0.1 Gop pending vs 0.1 Gop/TTI whole-server throughput = 1 TTI of
  // backlog — the overload controller's pressure unit.
  EXPECT_DOUBLE_EQ(ex.pending_gops(0), 0.1);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 1.0);
  // A degraded clock stretches the same backlog proportionally.
  ex.degrade_server(0, 0.5);
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 2.0);
  ex.restore_speed(0);
  engine.run();
  EXPECT_DOUBLE_EQ(ex.backlog_ttis(0), 0.0);
}

TEST(Executor, ComputeOutageIsItsOwnOutcome) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  bool drop_fired = false;
  ex.set_drop_callback(
      [&](const lte::SubframeJob&, int) { drop_fired = true; });
  ex.record_compute_outage(0, make_job(3, 0.2, 0, sim::kMillisecond));
  // HARQ accounting rides the completion callback; the drop callback
  // stays reserved for fault-induced loss.
  ASSERT_EQ(seen.outcomes.size(), 1u);
  const auto& o = seen.outcomes[0];
  EXPECT_TRUE(o.compute_outage);
  EXPECT_FALSE(o.dropped);
  // An abandoned job never ran: it is neither a miss nor a drop.
  EXPECT_FALSE(o.missed_deadline());
  EXPECT_FALSE(drop_fired);
  EXPECT_EQ(ex.stats().compute_outages, 1u);
  EXPECT_EQ(ex.stats().completed, 0u);
  EXPECT_EQ(ex.stats().dropped, 0u);
  EXPECT_DOUBLE_EQ(ex.stats().compute_outage_ratio(), 1.0);
  EXPECT_EQ(ex.stats_for_server(0).compute_outages, 1u);
  EXPECT_THROW(ex.record_compute_outage(9, make_job(0, 0.1, 0, 1)),
               pran::ContractViolation);
}

TEST(Executor, DropCallbackOutageSeenOnceByCompletion) {
  // The drop callback abandons the job on another server as a compute
  // outage, recording a second outcome while the drop is being reported.
  // The completion callback must still see each outcome exactly once.
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0), one_core(100.0)}, SchedPolicy::kEdf);
  ex.set_outcome_log(true);
  ex.set_drop_callback([&](const lte::SubframeJob& job, int) {
    ex.record_compute_outage(1, job);
  });
  std::vector<JobOutcome> seen;
  ex.set_completion_callback(
      [&](const JobOutcome& o) { seen.push_back(o); });
  ex.submit(0, make_job(1, 0.5, 0, 10 * sim::kMillisecond));
  engine.run_until(sim::kMillisecond);  // running on server 0
  ex.fail_server(0);

  ASSERT_EQ(seen.size(), ex.outcomes().size());
  int drops = 0, outages = 0;
  for (const JobOutcome& o : seen) {
    if (o.dropped) {
      ++drops;
      EXPECT_EQ(o.server_id, 0);
    }
    if (o.compute_outage) {
      ++outages;
      EXPECT_EQ(o.server_id, 1);
    }
  }
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(outages, 1);
  EXPECT_EQ(ex.stats().dropped, 1u);
  EXPECT_EQ(ex.stats().compute_outages, 1u);
  EXPECT_EQ(ex.stats_for_server(0).dropped, 1u);
  EXPECT_EQ(ex.stats_for_server(1).compute_outages, 1u);
}

TEST(Executor, ComputeOutageExcludedFromUtilization) {
  sim::Engine engine;
  Executor ex(engine, {one_core(100.0)}, SchedPolicy::kEdf);
  ex.submit(0, make_job(0, 0.1, 0, 10 * sim::kMillisecond));  // 1 ms busy
  ex.record_compute_outage(0, make_job(1, 5.0, 0, sim::kMillisecond));
  engine.run();
  // The abandoned 5 Gop job burned zero core time.
  EXPECT_DOUBLE_EQ(ex.utilization(0, 2 * sim::kMillisecond), 0.5);
  const auto stats = ex.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.compute_outages, 1u);
  // Ratio over all settled jobs: 1 outage of 2.
  EXPECT_DOUBLE_EQ(stats.compute_outage_ratio(), 0.5);
}

TEST(Executor, OutcomeLogIsOptIn) {
  // A failure and a mix of completions, misses, drops and an outage, run
  // twice: once with the log off (the default), once with it on.
  struct Run {
    std::vector<JobOutcome> seen;  ///< What the completion callback saw.
    std::vector<JobOutcome> log;
    Executor::Stats stats;
  };
  auto run = [](bool keep_log) {
    Run r;
    sim::Engine engine;
    Executor ex(engine, {one_core(100.0), one_core(100.0)},
                SchedPolicy::kEdf);
    if (keep_log) ex.set_outcome_log(true);
    ex.set_completion_callback(
        [&r](const JobOutcome& o) { r.seen.push_back(o); });
    for (int i = 0; i < 6; ++i) {
      ex.submit(i % 2, make_job(i, 0.1 * (i + 1), i * sim::kMillisecond,
                                (i + 3) * sim::kMillisecond));
    }
    engine.schedule_at(2 * sim::kMillisecond, [&] { ex.fail_server(1); });
    ex.record_compute_outage(0, make_job(9, 1.0, 0, sim::kMillisecond));
    engine.run();
    r.log = ex.outcomes();
    r.stats = ex.stats();
    return r;
  };

  const Run off = run(false);
  EXPECT_TRUE(off.log.empty());
  // The tallies do not depend on the log.
  EXPECT_EQ(off.stats.completed + off.stats.dropped +
                off.stats.compute_outages,
            off.seen.size());
  EXPECT_EQ(off.stats.compute_outages, 1u);
  EXPECT_GT(off.stats.dropped, 0u);
  EXPECT_GT(off.stats.missed, 0u);
  EXPECT_GT(off.stats.total_busy_seconds, 0.0);

  const Run on = run(true);
  // With the log on it holds every outcome in completion order: exactly
  // what the completion callback saw.
  ASSERT_EQ(on.log.size(), on.seen.size());
  for (std::size_t i = 0; i < on.seen.size(); ++i) {
    EXPECT_EQ(on.log[i].job.cell_id, on.seen[i].job.cell_id);
    EXPECT_EQ(on.log[i].server_id, on.seen[i].server_id);
    EXPECT_EQ(on.log[i].finish, on.seen[i].finish);
    EXPECT_EQ(on.log[i].dropped, on.seen[i].dropped);
    EXPECT_EQ(on.log[i].compute_outage, on.seen[i].compute_outage);
  }
  EXPECT_EQ(on.stats.completed, off.stats.completed);
  EXPECT_EQ(on.stats.missed, off.stats.missed);
  EXPECT_EQ(on.stats.dropped, off.stats.dropped);
  EXPECT_DOUBLE_EQ(on.stats.total_busy_seconds, off.stats.total_busy_seconds);
}

TEST(Executor, ValidatesServerIds) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  EXPECT_THROW(ex.submit(1, make_job(0, 0.1, 0, 1)), pran::ContractViolation);
  EXPECT_THROW(ex.spec(-1), pran::ContractViolation);
  EXPECT_THROW(Executor(engine, {}, SchedPolicy::kEdf),
               pran::ContractViolation);
}

TEST(Executor, ZeroCostJobCompletesInstantly) {
  sim::Engine engine;
  Executor ex(engine, {one_core()}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  ex.submit(0, make_job(0, 0.0, sim::kMillisecond, 2 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(ex.stats().completed, 1u);
  EXPECT_EQ(seen.outcomes[0].finish, sim::kMillisecond);
}

TEST(ServerSpec, GopsPerTti) {
  ServerSpec spec{"s", 8, 150.0};
  EXPECT_NEAR(spec.gops_per_tti(), 1.2, 1e-12);
}

TEST(SchedPolicyName, Strings) {
  EXPECT_STREQ(sched_policy_name(SchedPolicy::kEdf), "edf");
  EXPECT_STREQ(sched_policy_name(SchedPolicy::kFifo), "fifo");
}

}  // namespace
}  // namespace pran::cluster
