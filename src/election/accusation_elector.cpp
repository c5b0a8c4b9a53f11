#include "election/accusation_elector.hpp"

#include <algorithm>

namespace omega::election {

accusation_elector::accusation_elector(elector_context ctx)
    : elector(std::move(ctx)), self_acc_(ctx_.clock->now()) {}

void accusation_elector::on_accuse(const proto::accuse_msg& msg) {
  if (msg.target != ctx_.self_pid || msg.target_inc != ctx_.self_inc) return;
  // Idempotency under at-least-once delivery: a suspicion is identified by
  // (accuser, accuser's suspicion time). Replays carry the same `when`, and
  // a reordered older suspicion from the same accuser is subsumed by the
  // newer one already processed — neither may demote us again, or a
  // duplicating network would keep a healthy leader demoted forever.
  auto [it, first] = accuse_processed_.try_emplace(msg.from, msg.when);
  if (!first) {
    if (msg.when <= it->second) return;
    it->second = msg.when;
  }
  const time_point now = ctx_.clock->now();
  if (now > self_acc_) {
    self_acc_ = now;
    memo_dirty_ = true;
  }
}

void accusation_elector::on_member_removed(const membership::member_info& member) {
  auto it = peers_.find(member.pid);
  if (it != peers_.end() && it->second.inc <= member.inc) {
    peers_.erase(it);
    memo_dirty_ = true;
  }
}

std::optional<process_id> accusation_elector::evaluate() {
  const std::uint64_t version = ctx_.members_version();
  if (!memo_dirty_ && version == evaluated_version_) {
    return memo_;
  }
  const auto& members = ctx_.members();
  // Candidate members indexed per roster *version*, not per evaluation:
  // candidate-flag and incarnation changes bump it, timestamp refreshes do
  // not. Eligibility is then a hash probe instead of a roster scan per
  // contender or mention, which would make an evaluation O(n^2).
  if (version != evaluated_version_) {
    candidates_.clear();
    for (const auto& m : members) {
      if (m.candidate) candidates_.emplace(m.pid, m.inc);
    }
    evaluated_version_ = version;
  }
  const std::optional<rank> best = decide(members);
  memo_ = best ? std::optional<process_id>(best->pid) : std::nullopt;
  memo_dirty_ = false;
  return memo_;
}

void accusation_elector::set_candidate(bool candidate) {
  if (ctx_.candidate == candidate) return;
  ctx_.candidate = candidate;
  memo_dirty_ = true;
  // Enter the order ranked behind every established candidate, exactly like
  // a fresh join would (the accusation time doubles as join time).
  if (candidate) self_acc_ = ctx_.clock->now();
}

bool accusation_elector::admissible(process_id pid, incarnation inc) const {
  if (pid == ctx_.self_pid) return false;
  auto it = peers_.find(pid);
  return it == peers_.end() || inc >= it->second.inc;
}

void accusation_elector::record(process_id pid, peer seen) {
  auto [it, inserted] = peers_.try_emplace(pid);
  seen.acc_time = std::max(seen.acc_time, it->second.acc_time);
  if (inserted || it->second != seen) {
    it->second = seen;
    memo_dirty_ = true;
  }
}

void accusation_elector::accuse(process_id pid, const peer& st) const {
  ctx_.send_accuse({.from = ctx_.self_node,
                    .from_inc = ctx_.self_inc,
                    .group = ctx_.group,
                    .target = pid,
                    .target_inc = st.inc,
                    .phase = st.phase,
                    .when = ctx_.clock->now()},
                   st.node);
}

std::optional<incarnation> accusation_elector::candidate_inc(process_id pid) const {
  auto it = candidates_.find(pid);
  if (it == candidates_.end()) return std::nullopt;
  return it->second;
}

}  // namespace omega::election
