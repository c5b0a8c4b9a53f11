// The one timer queue of both runtimes (DESIGN.md §9): `sim::simulator`
// wraps it with a virtual clock, `runtime::event_loop` with a mutex. Not
// thread-safe. Callbacks live in a slab of small-buffer `unique_task` slots
// recycled through a free list; the binary heap stores 24-byte (when, seq,
// slot, generation) records. A `timer_id` encodes (generation << 32 |
// slot + 1), so `cancel` is an O(1) slot release with no hash lookups —
// stale heap records are skipped lazily on pop and purged eagerly once they
// outnumber the live ones. Pushing, cancelling and popping a timer are all
// allocation-free in steady state. Equal deadlines pop in push order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/executor.hpp"
#include "common/time.hpp"

namespace omega {

class timer_heap {
 public:
  /// Queues `fn` to pop at `when`.
  timer_id push(time_point when, unique_task fn);

  /// Drops a queued timer; a no-op for fired, cancelled or unknown ids.
  void cancel(timer_id id);

  /// Moves the earliest live timer due at or before `limit` into `when`
  /// and `fn`; false when none is. Its slot is already released, so `fn`
  /// may push or cancel anything.
  bool pop(time_point limit, time_point& when, unique_task& fn);

  /// Earliest live deadline; nullopt when nothing is queued.
  [[nodiscard]] std::optional<time_point> next();

  /// Queued, not cancelled timers.
  [[nodiscard]] std::size_t live() const {
    return heap_.size() - stale_in_heap_;
  }
  /// Heap records, cancelled-but-not-yet-purged ones included.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  /// High-water mark of concurrently queued timers (slab slots ever built).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }

 private:
  struct event {
    time_point when;
    std::uint64_t seq;   // tie-breaker: FIFO among equal times
    std::uint32_t slot;  // slab index of the callback
    std::uint32_t gen;   // must match the slot's generation to be live
  };
  /// Heap comparator: "a fires after b" puts the earliest (when, seq) at
  /// the front.
  static bool later(const event& a, const event& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  struct slot {
    unique_task fn;
    std::uint32_t gen = 1;       // bumped on every release; 1:1 with heap use
    std::uint32_t next_free = kNpos;
    bool armed = false;
  };
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// Below this queue size lazy purge is cheap enough; no eager compaction.
  static constexpr std::size_t kCompactMin = 64;

  [[nodiscard]] bool is_live(const event& ev) const {
    const slot& s = slots_[ev.slot];
    return s.armed && s.gen == ev.gen;
  }
  /// Pops stale records off the heap top.
  void purge_top();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  /// Drops every stale record and re-heapifies; total (when, seq) order
  /// makes the rebuilt heap equivalent, so delivery order is unchanged.
  void compact();

  std::uint64_t next_seq_ = 1;
  std::vector<event> heap_;
  std::vector<slot> slots_;
  std::uint32_t free_head_ = kNpos;
  std::size_t stale_in_heap_ = 0;
};

}  // namespace omega
