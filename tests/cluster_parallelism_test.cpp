// Tests for intra-job (code-block) parallelism in the executor.

#include <gtest/gtest.h>

#include "cluster/executor.hpp"
#include "lte/subframe.hpp"
#include "outcome_log.hpp"

namespace pran::cluster {
namespace {

lte::SubframeJob job_with(double gops, int parallelism, sim::Time deadline) {
  lte::SubframeJob job;
  job.cost[lte::Stage::kDecode] = gops;
  job.parallelism = parallelism;
  job.release = 0;
  job.deadline = deadline;
  return job;
}

ServerSpec wide_server(int cores, int max_par) {
  ServerSpec spec{"s", cores, 100.0};
  spec.max_job_parallelism = max_par;
  return spec;
}

TEST(Parallelism, JobFansOutAcrossFreeCores) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(4, 8)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // 0.4 Gop at 100 GOPS = 4 ms serial; on 4 cores = 1 ms.
  ex.submit(0, job_with(0.4, 16, 100 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 1u);
  EXPECT_EQ(seen.outcomes[0].finish, sim::kMillisecond);
  EXPECT_EQ(seen.outcomes[0].cores_used, 4);
}

TEST(Parallelism, WidthCappedByJobParallelism) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(8, 8)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  ex.submit(0, job_with(0.4, 2, 100 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(seen.outcomes[0].cores_used, 2);
  EXPECT_EQ(seen.outcomes[0].finish, 2 * sim::kMillisecond);
}

TEST(Parallelism, WidthCappedByServerPolicy) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(8, 1)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  ex.submit(0, job_with(0.4, 16, 100 * sim::kMillisecond));
  engine.run();
  EXPECT_EQ(seen.outcomes[0].cores_used, 1);
  EXPECT_EQ(seen.outcomes[0].finish, 4 * sim::kMillisecond);
}

TEST(Parallelism, ConcurrentJobsShareCores) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(4, 4)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // First job grabs all 4 cores; second queues, then gets all 4.
  ex.submit(0, job_with(0.4, 8, 100 * sim::kMillisecond));
  ex.submit(0, job_with(0.4, 8, 100 * sim::kMillisecond));
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 2u);
  EXPECT_EQ(seen.outcomes[0].finish, sim::kMillisecond);
  EXPECT_EQ(seen.outcomes[1].finish, 2 * sim::kMillisecond);
}

TEST(Parallelism, PartialWidthWhenCoresBusy) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(4, 4)}, SchedPolicy::kEdf);
  OutcomeLog seen(ex);
  // Long serial job occupies 1 core (parallelism 1)...
  ex.submit(0, job_with(0.5, 1, 100 * sim::kMillisecond));  // 5 ms on 1 core
  // ...second job can only fan out over the remaining 3.
  ex.submit(0, job_with(0.3, 8, 100 * sim::kMillisecond));  // 1 ms on 3
  engine.run();
  ASSERT_EQ(seen.outcomes.size(), 2u);
  EXPECT_EQ(seen.outcomes[0].cores_used, 3);
  EXPECT_EQ(seen.outcomes[0].finish, sim::kMillisecond);
  EXPECT_EQ(seen.outcomes[1].cores_used, 1);
}

TEST(Parallelism, BusyAccountingScalesWithWidth) {
  sim::Engine engine;
  Executor ex(engine, {wide_server(4, 4)}, SchedPolicy::kEdf);
  ex.submit(0, job_with(0.4, 8, 100 * sim::kMillisecond));  // 1 ms x 4 cores
  engine.run();
  EXPECT_NEAR(ex.stats().total_busy_seconds, 4e-3, 1e-12);
  EXPECT_NEAR(ex.utilization(0, 2 * sim::kMillisecond), 0.5, 1e-9);
}

TEST(Parallelism, MakesDeadlinesFeasibleThatSerialMisses) {
  // A 0.3 Gop subframe on a 100 GOPS core takes 3 ms — exactly the HARQ
  // budget, so any queueing at all causes a miss serially. With fan-out it
  // completes in a fraction of the budget.
  for (int max_par : {1, 8}) {
    sim::Engine engine;
    Executor ex(engine, {wide_server(8, max_par)}, SchedPolicy::kEdf);
    OutcomeLog seen(ex);
    for (int i = 0; i < 3; ++i) {
      auto job = job_with(0.3, 12, 3 * sim::kMillisecond);
      job.release = 0;
      ex.submit(0, job);
    }
    engine.run();
    if (max_par == 1) {
      EXPECT_EQ(ex.stats().missed, 0u);  // 3 cores run 3 jobs at 3 ms sharp
    } else {
      EXPECT_EQ(ex.stats().missed, 0u);
      // With fan-out the worst finish time is far inside the budget.
      for (const auto& o : seen.outcomes)
        EXPECT_LE(o.finish, 2 * sim::kMillisecond);
    }
  }
}

TEST(SubframeFactoryParallelism, CodeBlockCountSetsParallelism) {
  lte::SubframeFactory factory(0, lte::CellConfig{}, lte::CostModel{}, 0);
  // 100 PRB at MCS 28: ~77.7 kbit per layer -> 13 code blocks x 2 layers.
  const std::vector<lte::Allocation> full{{100, 28, 6}};
  const auto big = factory.uplink_job(0, full);
  EXPECT_GE(big.parallelism, 20);
  // Small allocation: single code block per layer.
  const std::vector<lte::Allocation> small{{4, 5, 4}};
  const auto little = factory.uplink_job(0, small);
  EXPECT_LE(little.parallelism, 2);
  // Empty subframe still has parallelism 1.
  EXPECT_EQ(factory.uplink_job(0, {}).parallelism, 1);
}

}  // namespace
}  // namespace pran::cluster
