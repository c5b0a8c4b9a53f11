// Per-destination item sets of one fan-out.
//
// The service's heartbeat tick gives each destination the payloads of the
// groups whose tables hold it, and the HELLO sweep gives each destination
// the entries of the groups it should hear about. Both send one datagram
// per destination, and destinations given the same items get the same
// bytes. A `fanout_plan` names those sets, so each distinct set is encoded
// once and multicast to all of its destinations (DESIGN.md §3).
//
// Items are the caller's indices (into its payload or entry list). The
// plan keeps its storage across `clear`, so a warm plan allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace omega::net {

class fanout_plan {
 public:
  /// Forgets every gift; the storage stays for the next plan.
  void clear() { gifts_.clear(); }

  /// Gives item `item` to `dst`. A repeated gift counts once.
  void give(node_id dst, std::uint32_t item) {
    gifts_.push_back(std::uint64_t{dst.value()} << 32 | item);
  }

  [[nodiscard]] bool empty() const { return gifts_.empty(); }

  /// Calls `on_set(items, dsts)` once per distinct item set, with
  /// `std::span<const std::uint32_t>` items ascending and
  /// `std::span<const node_id>` destinations in node order. Sets come in
  /// the order they were first named (naming {a, b} names {a} first). The
  /// spans are valid during the call only, and `on_set` must not give to
  /// this plan.
  template <class F>
  void for_each_set(F&& on_set) {
    // Sorted, each destination's gifts are adjacent with its items
    // ascending, so walking them names its set: set 0 is empty, and a set
    // s that gains item i (above every item in s) becomes the set {s, i},
    // found or made there.
    std::sort(gifts_.begin(), gifts_.end());
    gifts_.erase(std::unique(gifts_.begin(), gifts_.end()), gifts_.end());
    sets_.assign(1, set{});
    named_.clear();
    for (std::size_t i = 0; i < gifts_.size();) {
      const std::uint64_t dst = gifts_[i] >> 32;
      std::uint32_t s = 0;
      for (; i < gifts_.size() && gifts_[i] >> 32 == dst; ++i) {
        s = extended(s, static_cast<std::uint32_t>(gifts_[i]));
      }
      named_.push_back(std::uint64_t{s} << 32 | dst);
    }

    // Sorted by (set, node), each set's destinations are one run.
    std::sort(named_.begin(), named_.end());
    dsts_.clear();
    for (const std::uint64_t key : named_) {
      dsts_.push_back(node_id{static_cast<std::uint32_t>(key)});
    }
    for (std::size_t i = 0; i < named_.size();) {
      const auto s = static_cast<std::uint32_t>(named_[i] >> 32);
      const std::size_t first = i;
      while (i < named_.size() && named_[i] >> 32 == s) ++i;
      items_.clear();
      for (std::uint32_t t = s; t != 0; t = sets_[t].parent) {
        items_.push_back(sets_[t].last);
      }
      std::reverse(items_.begin(), items_.end());
      on_set(std::span<const std::uint32_t>(items_),
             std::span<const node_id>(dsts_).subspan(first, i - first));
    }
  }

 private:
  struct set {
    std::uint32_t parent = 0;
    std::uint32_t last = 0;
  };

  /// The set {s, item}, found or made.
  std::uint32_t extended(std::uint32_t s, std::uint32_t item) {
    for (std::uint32_t t = 1; t < sets_.size(); ++t) {
      if (sets_[t].parent == s && sets_[t].last == item) return t;
    }
    sets_.push_back({s, item});
    return static_cast<std::uint32_t>(sets_.size() - 1);
  }

  std::vector<std::uint64_t> gifts_;  // destination << 32 | item
  std::vector<set> sets_;
  std::vector<std::uint64_t> named_;  // set << 32 | destination
  std::vector<node_id> dsts_;
  std::vector<std::uint32_t> items_;
};

}  // namespace omega::net
