// The timer core both runtimes queue on: cancellation, slot reuse,
// compaction and the pop limit. The simulator's clock and the live loop's
// slack window are tested with their owners.
#include "common/timer_heap.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace omega {
namespace {

/// Pops and runs every queued timer in deadline order; returns how many ran.
int run_all(timer_heap& h) {
  int ran = 0;
  time_point when{};
  unique_task fn;
  while (h.pop(time_point::max(), when, fn)) {
    fn();
    ++ran;
  }
  return ran;
}

TEST(TimerHeap, LiveExcludesCancelled) {
  timer_heap h;
  const timer_id a = h.push(time_origin + sec(1), [] {});
  h.push(time_origin + sec(2), [] {});
  EXPECT_EQ(h.live(), 2u);
  h.cancel(a);
  EXPECT_EQ(h.live(), 1u);
}

TEST(TimerHeap, CancelledIdsNeverAliasNewTimers) {
  // Slot reuse with generation tags: a stale id must not cancel the timer
  // that recycled its slot.
  timer_heap h;
  const timer_id stale = h.push(time_origin + sec(1), [] {});
  h.cancel(stale);
  bool fired = false;
  h.push(time_origin + sec(1), [&] { fired = true; });  // reuses slot
  h.cancel(stale);  // stale generation: must be a no-op
  EXPECT_EQ(run_all(h), 1);
  EXPECT_TRUE(fired);
}

TEST(TimerHeap, CompactionPurgesCancelledBacklog) {
  // Cancel far more than half the queue: eager compaction must shrink the
  // heap to the live set instead of letting stale records pile up until
  // their (distant) deadlines.
  timer_heap h;
  std::vector<timer_id> victims;
  for (int i = 0; i < 1000; ++i) {
    victims.push_back(h.push(time_origin + sec(3600) + sec(i), [] {}));
  }
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    h.push(time_origin + sec(1) + sec(i), [&] { ++fired; });
  }
  for (const timer_id id : victims) h.cancel(id);
  EXPECT_EQ(h.live(), 10u);
  // Stale records (1000) far exceed live ones (10): compaction has run.
  // Below 64 records the queue is left to lazy purge (compaction there
  // would cost more than it saves), so that's the resting bound.
  EXPECT_LE(h.heap_size(), 64u);
  EXPECT_EQ(run_all(h), 10);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(h.live(), 0u);
}

TEST(TimerHeap, CompactionPreservesFiringOrder) {
  timer_heap h;
  std::vector<int> order;
  std::vector<timer_id> victims;
  // Interleave keepers and victims at identical times so a naive rebuild
  // that loses seq numbers would scramble FIFO order.
  for (int i = 0; i < 200; ++i) {
    h.push(time_origin + sec(1), [&order, i] { order.push_back(i); });
    victims.push_back(h.push(time_origin + sec(1), [] {}));
  }
  for (const timer_id id : victims) h.cancel(id);
  run_all(h);
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerHeap, SlabReusesSlotsInSteadyState) {
  // A periodic timer re-arming itself must cycle through a bounded slab no
  // matter how many times it fires.
  timer_heap h;
  time_point now{};
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    if (fires < 1000) h.push(now + sec(1), tick);
  };
  h.push(now + sec(1), tick);
  unique_task fn;
  while (h.pop(time_point::max(), now, fn)) fn();
  EXPECT_EQ(fires, 1000);
  EXPECT_EQ(now, time_origin + sec(1000));
  EXPECT_LE(h.slab_slots(), 4u);
}

TEST(TimerHeap, PopHonoursLimit) {
  timer_heap h;
  std::vector<int> order;
  h.push(time_origin + sec(2), [&] { order.push_back(2); });
  h.push(time_origin + sec(1), [&] { order.push_back(1); });
  time_point when{};
  unique_task fn;
  EXPECT_FALSE(h.pop(time_origin + sec(1) - usec(1), when, fn));
  EXPECT_EQ(h.live(), 2u);
  ASSERT_TRUE(h.pop(time_origin + sec(1), when, fn));  // limit is inclusive
  EXPECT_EQ(when, time_origin + sec(1));
  fn();
  EXPECT_FALSE(h.pop(time_origin + sec(1), when, fn));
  ASSERT_TRUE(h.pop(time_origin + sec(5), when, fn));
  EXPECT_EQ(when, time_origin + sec(2));
  fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(h.pop(time_point::max(), when, fn));
}

TEST(TimerHeap, NextSkipsCancelledRecords) {
  timer_heap h;
  EXPECT_FALSE(h.next().has_value());
  const timer_id first = h.push(time_origin + sec(1), [] {});
  const timer_id second = h.push(time_origin + sec(2), [] {});
  h.push(time_origin + sec(3), [] {});
  EXPECT_EQ(h.next(), time_origin + sec(1));
  // The two earliest records stay in the heap (lazy purge) but are dead:
  // the deadline a loop would sleep until is the first live one.
  h.cancel(first);
  h.cancel(second);
  EXPECT_EQ(h.heap_size(), 3u);
  EXPECT_EQ(h.next(), time_origin + sec(3));
  EXPECT_EQ(run_all(h), 1);
  EXPECT_FALSE(h.next().has_value());
}

}  // namespace
}  // namespace omega
