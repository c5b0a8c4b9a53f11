// Heap allocations on the live loop's timer path. Every received heartbeat
// re-arms a monitor and every tick re-arms a heartbeat, so after warm-up
// neither a schedule/cancel pair nor a loop iteration may allocate.
//
// Replaces global operator new/delete, as bench/sim_hotpath does, which is
// why these tests live in a binary of their own. The counter is global; the
// windows below are chosen so that only the loop thread runs in them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/executor.hpp"
#include "runtime/event_loop.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace omega::runtime {
namespace {

using namespace std::chrono_literals;

TEST(LoopAllocations, ScheduleCancelPairsAllocateNothing) {
  event_loop loop;
  std::uint64_t allocs = 0;
  loop.sync([&] {
    const auto pairs = [&] {
      for (int i = 0; i < 10000; ++i) {
        loop.cancel(loop.schedule_after(sec(60), [] {}));
      }
    };
    pairs();  // warm-up: the queue reaches its working capacity
    const std::uint64_t before = g_allocs.load();
    pairs();
    allocs = g_allocs.load() - before;
  });
  EXPECT_EQ(allocs, 0u) << "10000 schedule_at + cancel pairs allocated";
}

/// A 1 ms heartbeat-style timer that re-arms itself from its callback.
struct ticker {
  explicit ticker(event_loop& loop) : timer(loop) {}
  void arm() {
    timer.arm_after(msec(1), [this] {
      fires.fetch_add(1);
      arm();
    });
  }
  scoped_timer timer;
  std::atomic<int> fires{0};
};

TEST(LoopAllocations, RearmingTimerIterationsAllocateNothing) {
  event_loop loop;
  ticker tick(loop);
  loop.sync([&] { tick.arm(); });
  const auto warm = std::chrono::steady_clock::now() + 2s;
  while (tick.fires.load() < 100 && std::chrono::steady_clock::now() < warm) {
    std::this_thread::sleep_for(10ms);
  }
  const int fires_before = tick.fires.load();
  const std::uint64_t before = g_allocs.load();
  std::this_thread::sleep_for(1s);
  const std::uint64_t allocs = g_allocs.load() - before;
  const int fires = tick.fires.load() - fires_before;
  // Joining the loop thread before the checks keeps the ticker from
  // firing while it is destroyed, whatever the outcome.
  loop.stop();
  EXPECT_GT(fires, 100) << "the 1 ms timer barely ran during the window";
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << fires
                        << " timer fires";
}

}  // namespace
}  // namespace omega::runtime
