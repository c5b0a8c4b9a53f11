#include "common/timer_heap.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace omega {

std::uint32_t timer_heap::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void timer_heap::release_slot(std::uint32_t idx) {
  slot& s = slots_[idx];
  s.fn.reset();
  s.armed = false;
  ++s.gen;  // invalidates the id and any stale heap record
  s.next_free = free_head_;
  free_head_ = idx;
}

timer_id timer_heap::push(time_point when, unique_task fn) {
  const std::uint32_t idx = acquire_slot();
  slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  heap_.push_back(event{when, next_seq_++, idx, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), later);
  // slot + 1 keeps 0 == no_timer; the generation disambiguates reuse, so a
  // cancel of an already-fired id can never hit the slot's next tenant.
  return (static_cast<timer_id>(s.gen) << 32) | (idx + 1);
}

void timer_heap::cancel(timer_id id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return;  // no_timer or never-issued id
  slot& s = slots_[idx];
  if (!s.armed || s.gen != gen) return;  // already fired or cancelled
  release_slot(idx);
  ++stale_in_heap_;  // its heap record is purged lazily (or compacted now)
  if (heap_.size() >= kCompactMin && stale_in_heap_ * 2 > heap_.size()) {
    compact();
  }
}

void timer_heap::compact() {
  std::erase_if(heap_, [this](const event& ev) { return !is_live(ev); });
  std::make_heap(heap_.begin(), heap_.end(), later);
  stale_in_heap_ = 0;
}

void timer_heap::purge_top() {
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    assert(stale_in_heap_ > 0);
    --stale_in_heap_;
  }
}

bool timer_heap::pop(time_point limit, time_point& when, unique_task& fn) {
  purge_top();
  if (heap_.empty() || heap_.front().when > limit) return false;
  const event ev = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  // Move the callback out before releasing: it runs after this returns and
  // may push or cancel other timers (including reusing this very slot).
  fn = std::move(slots_[ev.slot].fn);
  release_slot(ev.slot);
  when = ev.when;
  return true;
}

std::optional<time_point> timer_heap::next() {
  purge_top();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().when;
}

}  // namespace omega
