// Discrete-event simulation kernel.
//
// A single-threaded event loop over virtual time. Events at equal times fire
// in scheduling order (FIFO), which makes runs fully deterministic for a
// fixed RNG seed. The simulator implements the substrate interfaces
// (`clock_source`, `timer_service`) that all protocol code is written
// against, so the entire leader-election service runs unmodified on top of
// it. This kernel is the stand-in for the paper's 12-workstation LAN
// testbed (see DESIGN.md §1).
//
// Events queue on `common/timer_heap`, the timer core the live event loop
// shares (DESIGN.md §9); each popped event advances `now()` to its deadline.
#pragma once

#include <cstdint>

#include "common/executor.hpp"
#include "common/time.hpp"
#include "common/timer_heap.hpp"

namespace omega::sim {

class simulator final : public clock_source, public timer_service {
 public:
  simulator() = default;

  // clock_source
  [[nodiscard]] time_point now() const override { return now_; }

  // timer_service
  timer_id schedule_at(time_point when, unique_task fn) override;
  timer_id schedule_after(duration after, unique_task fn) override;
  void cancel(timer_id id) override { timers_.cancel(id); }

  /// Runs events until the queue is empty or virtual time would pass
  /// `deadline`; leaves `now() == deadline`.
  void run_until(time_point deadline);

  /// Runs at most one event. Returns false when the queue is empty.
  bool step();

  /// Total events executed since construction (simulation cost measure).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  /// Pops and runs the next live event due at or before `limit`, if any.
  bool fire_next(time_point limit);

  time_point now_{};
  std::uint64_t executed_ = 0;
  timer_heap timers_;
};

}  // namespace omega::sim
