#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "common/check.hpp"

namespace pran::sim {

void Engine::schedule_at(Time at, Handler handler) {
  PRAN_REQUIRE(at >= now_, "cannot schedule an event in the past");
  PRAN_REQUIRE(handler != nullptr, "event handler must be callable");
  queue_.push(Event{at, next_seq_++, std::move(handler)});
}

void Engine::schedule_in(Time delay, Handler handler) {
  PRAN_REQUIRE(delay >= 0, "event delay must be non-negative");
  schedule_at(now_ + delay, std::move(handler));
}

bool Engine::fire_next(Time limit) {
  if (queue_.empty() || queue_.top().at > limit) return false;
  // Move the event out before popping so the handler can schedule freely
  // while it runs. pop() still orders the heap correctly: the comparator
  // reads only `at` and `seq`, which a move leaves intact.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  PRAN_CHECK(ev.at >= now_, "event queue produced a time in the past");
  now_ = ev.at;
  ++executed_;
  ev.handler();
  return true;
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
