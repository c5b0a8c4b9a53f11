#include "sim/simulator.hpp"

#include <utility>

namespace omega::sim {

timer_id simulator::schedule_at(time_point when, unique_task fn) {
  if (when < now_) when = now_;  // never schedule into the past
  return timers_.push(when, std::move(fn));
}

timer_id simulator::schedule_after(duration after, unique_task fn) {
  if (after < duration{0}) after = duration{0};
  return schedule_at(now_ + after, std::move(fn));
}

bool simulator::fire_next(time_point limit) {
  time_point when{};
  unique_task fn;
  if (!timers_.pop(limit, when, fn)) return false;
  now_ = when;
  ++executed_;
  fn();
  return true;
}

void simulator::run_until(time_point deadline) {
  while (fire_next(deadline)) {
  }
  now_ = deadline;
}

bool simulator::step() { return fire_next(time_point::max()); }

}  // namespace omega::sim
