#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// The engine owns a priority queue of (time, sequence, callback) events.
/// Ties at the same timestamp are broken by insertion order, which makes
/// whole-cluster simulations reproducible run to run. Handlers may schedule
/// further events. There is no cancellation: an owner whose event went
/// stale (a completion of a job a failure already dropped, a deadline of a
/// migration already resolved) recognises it by its own id or token when
/// it fires and returns at once. A stale event therefore still fires,
/// counts in executed_events(), and is drained by run().

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace pran::sim {

class Engine {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `handler` to fire at absolute time `at` (>= now()).
  void schedule_at(Time at, Handler handler);

  /// Schedules `handler` to fire `delay` (>= 0) after now().
  void schedule_in(Time delay, Handler handler);

  /// True if any events remain, stale ones included.
  bool has_pending() const noexcept { return !queue_.empty(); }

  /// Number of pending events, stale ones included.
  std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= deadline, then advances the clock to
  /// `deadline` even if the queue drained earlier.
  void run_until(Time deadline);

  /// Total events executed so far.
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  /// Pops and runs the queue head if it is due by `limit`. Returns false
  /// when no event is due.
  bool fire_next(Time limit);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace pran::sim
