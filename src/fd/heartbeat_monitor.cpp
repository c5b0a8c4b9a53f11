#include "fd/heartbeat_monitor.hpp"

#include <utility>

namespace omega::fd {

heartbeat_monitor::heartbeat_monitor(clock_source& clock, timer_service& timers,
                                     duration detection_time,
                                     std::function<void(bool)> on_transition)
    : clock_(clock),
      timer_(timers),
      detection_time_(detection_time),
      on_transition_(std::move(on_transition)) {}

void heartbeat_monitor::on_heartbeat(time_point send_time, duration sender_eta) {
  last_heartbeat_ = clock_.now();
  const duration delta = pinned_delta_.value_or(detection_time_ - sender_eta);
  const time_point fresh_until = send_time + sender_eta + delta;
  if (fresh_until <= deadline_ && trusted_) return;  // stale / reordered
  if (fresh_until <= clock_.now()) return;           // already expired in flight
  deadline_ = std::max(deadline_, fresh_until);
  arm();
  if (!trusted_) {
    trusted_ = true;
    if (on_transition_) on_transition_(true);
  }
}

void heartbeat_monitor::arm() {
  timer_.arm_at(deadline_, [this] { expire(); });
}

void heartbeat_monitor::expire() {
  if (!trusted_) return;
  if (clock_.now() < deadline_) {
    // Deadline moved forward after this timer was armed; re-arm.
    arm();
    return;
  }
  trusted_ = false;
  if (on_transition_) on_transition_(false);
}

}  // namespace omega::fd
