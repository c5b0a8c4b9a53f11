// NFD-S freshness monitor for one (remote node, group) pair (paper §3).
//
// Tracks whether the remote process is currently trusted. A heartbeat sent
// at time s by a sender using interval eta is fresh until s + eta + delta
// (the freshness point of the *next* heartbeat, shifted by delta). The
// monitor keeps the maximum such deadline over all received heartbeats and
// suspects when the local clock passes it. The sender's current eta is
// taken from each ALIVE message, so rate renegotiation never desynchronizes
// the two sides.
//
// delta has one source per monitor. A tuning plan may pin it; otherwise it
// is the group's detection bound minus the eta the heartbeat announces,
// delta = T^U_D - eta, so a heartbeat sent at s is fresh until exactly
// s + T^U_D whatever interval the sender runs at. Every unpinned monitor of
// one sender in one group therefore suspects it at the same instant, T^U_D
// after its last heartbeat.
#pragma once

#include <functional>
#include <optional>

#include "common/executor.hpp"
#include "common/time.hpp"

namespace omega::fd {

class heartbeat_monitor {
 public:
  /// `detection_time` is the group's T^U_D, the horizon of an unpinned
  /// monitor. `on_transition(trusted)` fires on every trust <-> suspect
  /// edge, including the initial trust when the first heartbeat arrives.
  heartbeat_monitor(clock_source& clock, timer_service& timers,
                    duration detection_time,
                    std::function<void(bool)> on_transition);

  heartbeat_monitor(const heartbeat_monitor&) = delete;
  heartbeat_monitor& operator=(const heartbeat_monitor&) = delete;

  /// Feeds one received heartbeat (sender timestamp + sender's interval).
  void on_heartbeat(time_point send_time, duration sender_eta);

  /// Pins delta (a tuning plan's operating point), or with nullopt derives
  /// it from each heartbeat as T^U_D - eta. Applies to subsequent
  /// heartbeats.
  void set_delta(std::optional<duration> delta) { pinned_delta_ = delta; }

  [[nodiscard]] bool trusted() const { return trusted_; }
  /// Time the current freshness expires (meaningful while trusted).
  [[nodiscard]] time_point deadline() const { return deadline_; }
  /// Local receipt time of the most recent heartbeat (even stale ones —
  /// any heartbeat is evidence of life). Origin if never heard.
  [[nodiscard]] time_point last_heartbeat() const { return last_heartbeat_; }

 private:
  void arm();
  void expire();

  clock_source& clock_;
  scoped_timer timer_;
  duration detection_time_;
  std::optional<duration> pinned_delta_;
  std::function<void(bool)> on_transition_;
  bool trusted_ = false;
  time_point deadline_{};
  time_point last_heartbeat_{};
};

}  // namespace omega::fd
