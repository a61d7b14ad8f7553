// The executor's steady-state job path allocates nothing. This file is its
// own test binary: it replaces the global operator new with a counting one,
// which sees every heap allocation in the process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/executor.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pran::cluster {
namespace {

/// Submits three jobs to each of four 2-core servers per TTI, released a
/// little after the TTI starts, and runs the engine to the next TTI: every
/// job goes submit -> arrival -> (queue ->) dispatch -> completion.
void run_ttis(sim::Engine& engine, Executor& ex, int ttis) {
  lte::SubframeJob job;
  job.cost[lte::Stage::kDecode] = 0.04;  // 0.4 ms on a 100 GOPS core
  for (int t = 0; t < ttis; ++t) {
    const sim::Time tti_start = engine.now();
    for (int s = 0; s < ex.num_servers(); ++s) {
      for (int j = 0; j < 3; ++j) {
        job.cell_id = 3 * s + j;
        job.release = tti_start + 100 * sim::kMicrosecond;
        job.deadline = tti_start + (3 - j) * sim::kMillisecond;
        ex.submit(s, job);
      }
    }
    engine.run_until(tti_start + sim::kTti);
  }
}

TEST(Executor, SteadyStateJobPathDoesNotAllocate) {
  for (const SchedPolicy policy : {SchedPolicy::kEdf, SchedPolicy::kFifo}) {
    sim::Engine engine;
    Executor ex(engine, std::vector<ServerSpec>(4, ServerSpec{"s", 2, 100.0}),
                policy);
    std::uint64_t completed = 0;
    ex.set_completion_callback([&completed](const JobOutcome& o) {
      if (!o.dropped && !o.missed_deadline()) ++completed;
    });
    run_ttis(engine, ex, 100);  // warm-up: slab, queues and heap grow here
    const std::uint64_t before_jobs = completed;
    const std::uint64_t before = g_allocations.load();
    run_ttis(engine, ex, 84);  // 84 TTIs x 12 jobs = 1008 cycles
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(completed - before_jobs, 1008u) << sched_policy_name(policy);
    EXPECT_EQ(allocations, 0u) << sched_policy_name(policy);
    EXPECT_TRUE(ex.outcomes().empty());
  }
}

}  // namespace
}  // namespace pran::cluster
