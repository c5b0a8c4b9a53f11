#include "membership/member_table.hpp"

#include <algorithm>

namespace omega::membership {

namespace {

/// The first member of the pid-sorted `members` whose pid is not below
/// `pid`: the one lookup behind find, upsert and remove.
template <class Members>
auto lower_bound(Members& members, process_id pid) {
  return std::lower_bound(
      members.begin(), members.end(), pid,
      [](const member_info& m, process_id p) { return m.pid < p; });
}

}  // namespace

upsert_result member_table::upsert(process_id pid, node_id node, incarnation inc,
                                   bool candidate, time_point now,
                                   evidence source, member_info* prior) {
  const bool first_hand = source == evidence::first_hand;
  const time_point claim = first_hand && candidate ? now : time_point::min();
  auto it = lower_bound(members_, pid);
  if (it == members_.end() || it->pid != pid) {
    members_.insert(it, member_info{pid, node, inc, candidate, now, claim});
    ++version_;
    return upsert_result::joined;
  }
  member_info& m = *it;
  if (prior != nullptr) *prior = m;
  if (inc < m.inc) return upsert_result::stale_ignored;
  if (inc > m.inc) {
    m = member_info{pid, node, inc, candidate, now, claim};
    ++version_;
    return upsert_result::reincarnated;
  }
  m.last_refresh = std::max(m.last_refresh, now);
  if (first_hand) m.last_claim = claim;
  if (m.candidate != candidate || m.node != node) {
    m.candidate = candidate;
    m.node = node;
    ++version_;
    return upsert_result::updated;
  }
  return upsert_result::unchanged;
}

std::optional<member_info> member_table::remove(process_id pid, incarnation inc) {
  auto it = lower_bound(members_, pid);
  if (it == members_.end() || it->pid != pid) return std::nullopt;
  if (inc < it->inc) return std::nullopt;  // stale LEAVE: ignore
  member_info removed = *it;
  members_.erase(it);
  ++version_;
  return removed;
}

std::vector<member_info> member_table::evict_stale(
    time_point cutoff, const std::function<bool(const member_info&)>& still_vouched) {
  std::vector<member_info> evicted;
  std::erase_if(members_, [&](const member_info& m) {
    if (m.last_refresh >= cutoff || still_vouched(m)) return false;
    evicted.push_back(m);
    return true;
  });
  if (!evicted.empty()) ++version_;
  return evicted;
}

const member_info* member_table::find(process_id pid) const {
  auto it = lower_bound(members_, pid);
  return it != members_.end() && it->pid == pid ? &*it : nullptr;
}

}  // namespace omega::membership
