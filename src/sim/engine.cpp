#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "common/check.hpp"

namespace pran::sim {

EventId Engine::schedule_at(Time at, Handler handler) {
  PRAN_REQUIRE(at >= now_, "cannot schedule an event in the past");
  PRAN_REQUIRE(handler != nullptr, "event handler must be callable");
  const EventId id = next_id_++;
  queue_.push(Event{at, id, std::move(handler)});
  live_.insert(id);
  return id;
}

EventId Engine::schedule_in(Time delay, Handler handler) {
  PRAN_REQUIRE(delay >= 0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(handler));
}

bool Engine::cancel(EventId id) { return live_.erase(id) != 0; }

bool Engine::fire_next(Time limit) {
  while (!queue_.empty()) {
    const Event& head = queue_.top();
    if (head.at > limit) return false;
    if (live_.erase(head.id) == 0) {  // cancelled: skim it off
      queue_.pop();
      continue;
    }
    // Copy the event out before popping so the handler can schedule/cancel
    // freely while it runs.
    Event ev = head;
    queue_.pop();
    PRAN_CHECK(ev.at >= now_, "event queue produced a time in the past");
    now_ = ev.at;
    ++executed_;
    ev.handler();
    return true;
  }
  return false;
}

bool Engine::step() { return fire_next(std::numeric_limits<Time>::max()); }

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time deadline) {
  PRAN_REQUIRE(deadline >= now_, "deadline is in the past");
  while (fire_next(deadline)) {
  }
  now_ = deadline;
}

}  // namespace pran::sim
