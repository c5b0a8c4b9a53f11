#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace omega::sim {
namespace {

// The queue itself (cancellation, slot reuse, compaction) is tested on the
// core in tests/common/test_timer_heap.cpp; these tests cover the clock.

/// Runs events until the queue drains.
void run_all(simulator& s) {
  while (s.step()) {
  }
}

TEST(Simulator, StartsAtOrigin) {
  simulator s;
  EXPECT_EQ(s.now(), time_origin);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, EventsFireInTimeOrder) {
  simulator s;
  std::vector<int> order;
  s.schedule_at(time_origin + sec(3), [&] { order.push_back(3); });
  s.schedule_at(time_origin + sec(1), [&] { order.push_back(1); });
  s.schedule_at(time_origin + sec(2), [&] { order.push_back(2); });
  run_all(s);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), time_origin + sec(3));
}

TEST(Simulator, EqualTimesFireFifo) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(time_origin + sec(1), [&order, i] { order.push_back(i); });
  }
  run_all(s);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  simulator s;
  time_point fired{};
  s.schedule_at(time_origin + sec(5), [&] {
    s.schedule_after(sec(2), [&] { fired = s.now(); });
  });
  run_all(s);
  EXPECT_EQ(fired, time_origin + sec(7));
}

TEST(Simulator, CancelPreventsFiring) {
  simulator s;
  bool fired = false;
  const timer_id id = s.schedule_at(time_origin + sec(1), [&] { fired = true; });
  s.cancel(id);
  EXPECT_FALSE(s.step());  // the cancelled event is not pending
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  simulator s;
  int count = 0;
  const timer_id id = s.schedule_at(time_origin + sec(1), [&] { ++count; });
  run_all(s);
  s.cancel(id);  // already fired: no-op
  s.cancel(id);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  simulator s;
  int count = 0;
  s.schedule_at(time_origin + sec(1), [&] { ++count; });
  s.schedule_at(time_origin + sec(10), [&] { ++count; });
  s.run_until(time_origin + sec(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), time_origin + sec(5));
  s.run_until(time_origin + sec(15));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventAtDeadlineBoundaryFires) {
  simulator s;
  bool fired = false;
  s.schedule_at(time_origin + sec(5), [&] { fired = true; });
  s.run_until(time_origin + sec(5));
  EXPECT_TRUE(fired);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  simulator s;
  s.run_until(time_origin + sec(10));
  time_point fired{};
  s.schedule_at(time_origin + sec(1), [&] { fired = s.now(); });
  run_all(s);
  EXPECT_EQ(fired, time_origin + sec(10));
}

TEST(Simulator, CallbackCanScheduleAndCancel) {
  simulator s;
  bool victim_fired = false;
  const timer_id victim =
      s.schedule_at(time_origin + sec(2), [&] { victim_fired = true; });
  s.schedule_at(time_origin + sec(1), [&] { s.cancel(victim); });
  run_all(s);
  EXPECT_FALSE(victim_fired);
}

TEST(Simulator, PeriodicRescheduling) {
  simulator s;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    if (fires < 5) s.schedule_after(sec(1), tick);
  };
  s.schedule_after(sec(1), tick);
  s.run_until(time_origin + sec(100));
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, StepRunsExactlyOne) {
  simulator s;
  int count = 0;
  s.schedule_at(time_origin + sec(1), [&] { ++count; });
  s.schedule_at(time_origin + sec(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

}  // namespace
}  // namespace omega::sim
