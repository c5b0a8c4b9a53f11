#include "membership/member_table.hpp"

#include <algorithm>

namespace omega::membership {

upsert_result member_table::upsert(process_id pid, node_id node, incarnation inc,
                                   bool candidate, time_point now,
                                   evidence source, member_info* prior) {
  const bool first_hand = source == evidence::first_hand;
  const time_point claim = first_hand && candidate ? now : time_point::min();
  auto it = members_.find(pid);
  if (it == members_.end()) {
    const member_info m{pid, node, inc, candidate, now, claim};
    members_.emplace(pid, m);
    insert_cache(m);
    if (min_bound_valid_) min_refresh_bound_ = std::min(min_refresh_bound_, now);
    ++version_;
    return upsert_result::joined;
  }
  member_info& m = it->second;
  if (prior != nullptr) *prior = m;
  if (inc < m.inc) return upsert_result::stale_ignored;
  if (inc > m.inc) {
    m = member_info{pid, node, inc, candidate, now, claim};
    patch_cache(m);
    ++version_;
    return upsert_result::reincarnated;
  }
  m.last_refresh = std::max(m.last_refresh, now);
  if (first_hand) m.last_claim = claim;
  if (m.candidate != candidate || m.node != node) {
    m.candidate = candidate;
    m.node = node;
    patch_cache(m);
    ++version_;
    return upsert_result::updated;
  }
  patch_cache(m);
  return upsert_result::unchanged;
}

std::optional<member_info> member_table::remove(process_id pid, incarnation inc) {
  auto it = members_.find(pid);
  if (it == members_.end()) return std::nullopt;
  if (inc < it->second.inc) return std::nullopt;  // stale LEAVE: ignore
  member_info removed = it->second;
  members_.erase(it);
  erase_cache(removed.pid);
  ++version_;
  return removed;
}

std::vector<member_info> member_table::evict_stale(
    time_point cutoff, const std::function<bool(const member_info&)>& still_vouched) {
  std::vector<member_info> evicted;
  if (min_bound_valid_ && min_refresh_bound_ >= cutoff) return evicted;
  time_point min_refresh = time_point::max();
  for (auto it = members_.begin(); it != members_.end();) {
    const member_info& m = it->second;
    if (m.last_refresh < cutoff && !still_vouched(m)) {
      evicted.push_back(m);
      it = members_.erase(it);
    } else {
      min_refresh = std::min(min_refresh, m.last_refresh);
      ++it;
    }
  }
  min_refresh_bound_ = min_refresh;
  min_bound_valid_ = true;
  if (!evicted.empty()) {
    cache_valid_ = false;
    ++version_;
  }
  return evicted;
}

const member_info* member_table::find(process_id pid) const {
  auto it = members_.find(pid);
  return it != members_.end() ? &it->second : nullptr;
}

std::vector<member_info> member_table::members() const { return members_view(); }

const std::vector<member_info>& member_table::members_view() const {
  if (!cache_valid_) {
    sorted_cache_.clear();
    sorted_cache_.reserve(members_.size());
    for (const auto& [pid, info] : members_) sorted_cache_.push_back(info);
    std::sort(sorted_cache_.begin(), sorted_cache_.end(),
              [](const member_info& a, const member_info& b) { return a.pid < b.pid; });
    cache_valid_ = true;
  }
  return sorted_cache_;
}

void member_table::patch_cache(const member_info& m) {
  if (!cache_valid_) return;
  auto it = std::lower_bound(
      sorted_cache_.begin(), sorted_cache_.end(), m.pid,
      [](const member_info& a, process_id pid) { return a.pid < pid; });
  if (it != sorted_cache_.end() && it->pid == m.pid) *it = m;
}

void member_table::insert_cache(const member_info& m) {
  if (!cache_valid_) return;
  // In-place sorted insert: a full rebuild per join made cluster cold-start
  // quadratic per table (every discovery round re-sorted the growing
  // roster), which dominated 500-node bench settle time.
  auto it = std::lower_bound(
      sorted_cache_.begin(), sorted_cache_.end(), m.pid,
      [](const member_info& a, process_id pid) { return a.pid < pid; });
  sorted_cache_.insert(it, m);
}

void member_table::erase_cache(process_id pid) {
  if (!cache_valid_) return;
  auto it = std::lower_bound(
      sorted_cache_.begin(), sorted_cache_.end(), pid,
      [](const member_info& a, process_id p) { return a.pid < p; });
  if (it != sorted_cache_.end() && it->pid == pid) sorted_cache_.erase(it);
}

}  // namespace omega::membership
