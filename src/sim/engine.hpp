#pragma once

/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// The engine owns a priority queue of (time, sequence, callback) events.
/// Ties at the same timestamp are broken by insertion order, which makes
/// whole-cluster simulations reproducible run to run. Handlers may schedule
/// further events and cancel pending ones through the returned EventId.

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace pran::sim {

/// Identifies a scheduled event so it can be cancelled.
using EventId = std::uint64_t;

class Engine {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `handler` to fire at absolute time `at` (>= now()).
  EventId schedule_at(Time at, Handler handler);

  /// Schedules `handler` to fire `delay` (>= 0) after now().
  EventId schedule_in(Time delay, Handler handler);

  /// Cancels a pending event. Returns false if the event already fired or
  /// was already cancelled (cancel is idempotent).
  bool cancel(EventId id);

  /// True if any non-cancelled events remain.
  bool has_pending() const noexcept { return !live_.empty(); }

  /// Number of pending (non-cancelled) events.
  std::size_t pending_count() const noexcept { return live_.size(); }

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
    EventId id;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among simultaneous events
    }
  };

  /// Fires the earliest live event if it is due by `limit`, first popping
  /// queue heads that are no longer live (cancelled). Returns false when no
  /// live event is due.
  bool fire_next(Time limit);

  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Scheduled and neither fired nor cancelled. queue_ may still hold
  /// cancelled events; they are popped once they reach its head.
  std::unordered_set<EventId> live_;
};

}  // namespace pran::sim
