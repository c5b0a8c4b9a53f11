// Membership view of one group at one service instance (paper §4, "Group
// Maintenance" module).
//
// Tracks the set of processes currently believed to be in the group: who
// hosts them, their incarnation, whether they are leadership candidates,
// when we last heard membership evidence about them (HELLO or ALIVE) and
// when the member itself last claimed candidacy. The candidate flag may
// come from a third party's snapshot and go stale; the claim time only
// moves on the member's own word, so roster-scoped dissemination can tell
// a live candidate from a stale flag. Entries from older incarnations are
// replaced; long-silent entries are evicted by the group-maintenance sweep
// once the failure detector no longer vouches for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace omega::membership {

struct member_info {
  process_id pid;
  node_id node;
  incarnation inc = 0;
  bool candidate = false;
  time_point last_refresh{};
  /// When the member itself last claimed candidacy: its own HELLO entry or
  /// ALIVE payload with `candidate` set. A snapshot never sets it, and the
  /// member's own non-candidate evidence resets it to `time_point::min()`
  /// (no claim).
  time_point last_claim = time_point::min();

  friend bool operator==(const member_info&, const member_info&) = default;
};

/// Who reported an upsert's candidate flag: the member itself (its HELLO
/// entry or ALIVE payload) or another node's HELLO_ACK snapshot.
enum class evidence : std::uint8_t { first_hand, snapshot };

/// Result of an upsert, so callers know which notifications to emit.
enum class upsert_result {
  unchanged,      // already knew this (refreshed the timestamp only)
  joined,         // brand-new member
  reincarnated,   // same pid, higher incarnation (process recovered)
  updated,        // candidate flag or hosting node changed
  stale_ignored,  // evidence from an older incarnation; dropped
};

class member_table {
 public:
  /// Inserts or refreshes a member; see `upsert_result` for the outcome.
  /// First-hand evidence also records (or, when not a candidate, clears)
  /// the member's candidacy claim in the same entry. If `prior` is
  /// non-null, it receives the entry as it was before the call (unchanged
  /// when the result is `joined`) — saves the caller a second hash lookup
  /// on the per-ALIVE path.
  upsert_result upsert(process_id pid, node_id node, incarnation inc,
                       bool candidate, time_point now,
                       evidence source = evidence::first_hand,
                       member_info* prior = nullptr);

  /// Removes a member if the evidence is not stale (incarnation >= stored).
  /// Returns the removed entry, if any.
  std::optional<member_info> remove(process_id pid, incarnation inc);

  /// Removes members whose last refresh is older than `cutoff` and for whom
  /// `still_vouched(member)` is false. Returns the evicted entries.
  std::vector<member_info> evict_stale(
      time_point cutoff, const std::function<bool(const member_info&)>& still_vouched);

  [[nodiscard]] const member_info* find(process_id pid) const;
  [[nodiscard]] std::vector<member_info> members() const;

  /// The members sorted by pid, as a reference into a cache that stays valid
  /// until the next membership *change* (join/leave/eviction). Timestamp
  /// refreshes — the once-per-ALIVE common case — patch the cache in place,
  /// so the election hot path reads the roster without copying or sorting
  /// it. The reference is invalidated by any non-const member call.
  [[nodiscard]] const std::vector<member_info>& members_view() const;

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }

  /// Monotonic counter bumped by every change to membership *content* —
  /// joins, leaves, evictions, reincarnations, candidate/host updates —
  /// but not by pure last_refresh timestamps. Electors use it to detect
  /// roster changes between evaluations without rescanning the roster.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  /// Mirrors an updated entry into the sorted cache (pid unchanged, so the
  /// sort position is stable). No-op while the cache is invalid.
  void patch_cache(const member_info& m);
  /// Sorted-position insert / erase keeping the cache valid across single
  /// joins and removals; the bulk removal (evict_stale) just invalidates
  /// instead. No-ops while the cache is invalid.
  void insert_cache(const member_info& m);
  void erase_cache(process_id pid);

  std::unordered_map<process_id, member_info> members_;
  mutable std::vector<member_info> sorted_cache_;
  mutable bool cache_valid_ = false;
  std::uint64_t version_ = 0;

  /// Lower bound on every member's last_refresh, so the periodic eviction
  /// sweep can prove "nobody is stale" without scanning. Refreshes only
  /// raise timestamps (time is monotone) and removals only raise the true
  /// minimum, so the bound stays valid between full scans; inserts fold
  /// their timestamp in. evict_stale recomputes it exactly when it does
  /// scan. A conservative (low) bound only costs an unnecessary scan.
  time_point min_refresh_bound_{};
  bool min_bound_valid_ = false;
};

}  // namespace omega::membership
