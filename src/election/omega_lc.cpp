#include "election/omega_lc.hpp"

#include <algorithm>

namespace omega::election {

void omega_lc::on_alive_payload(node_id from, incarnation inc,
                                const proto::group_payload& payload) {
  if (!admissible(payload.pid, inc)) return;
  // Omega_lc does not use phases: the record's phase, and so that of its
  // ACCUSEs, stays 0.
  record(payload.pid, {.node = from,
                       .inc = inc,
                       .candidate = payload.candidate,
                       .acc_time = payload.accusation_time,
                       .local_leader = payload.local_leader,
                       .local_leader_acc = payload.local_leader_acc});
}

void omega_lc::on_fd_transition(node_id node, bool trusted) {
  memo_dirty_ = true;  // trust verdicts feed fresh(); any edge can flip ranks
  if (trusted) {
    // The link healed before the accusation became necessary: cancel any
    // pending accusation against processes hosted there. This is the path
    // that masks a transient single-link crash completely.
    for (const auto& [pid, st] : peers_) {
      if (st.node == node) pending_accuse_.erase(pid);
    }
    return;
  }
  // Our FD just started suspecting `node`. For every candidate process it
  // hosts: if somebody we trust still forwards that process as their local
  // leader, the process is alive and only our link is at fault — hold the
  // accusation. Otherwise accuse now; if it really crashed the message is
  // lost, and if it is alive (an FD mistake, or all its outbound links
  // died) it will self-demote.
  for (const auto& [pid, st] : peers_) {
    if (st.node != node || !st.candidate) continue;
    if (forwarded_by_someone(pid)) {
      pending_accuse_.insert(pid);
    } else {
      accuse(pid, st);
    }
  }
}

bool omega_lc::forwarded_by_someone(process_id pid) const {
  for (const auto& [reporter, st] : peers_) {
    if (reporter == pid || st.local_leader != pid) continue;
    if (ctx_.is_trusted(st.node)) return true;
  }
  return false;
}

void omega_lc::recheck_pending_accusations() {
  for (auto it = pending_accuse_.begin(); it != pending_accuse_.end();) {
    const process_id pid = *it;
    auto peer = peers_.find(pid);
    if (peer == peers_.end()) {
      it = pending_accuse_.erase(it);  // removed from the group
      continue;
    }
    if (ctx_.is_trusted(peer->second.node)) {
      it = pending_accuse_.erase(it);  // link healed: never accuse
      continue;
    }
    if (!forwarded_by_someone(pid)) {
      // The forwarding evidence is gone too: everyone lost it. Accuse.
      accuse(pid, peer->second);
      it = pending_accuse_.erase(it);
      continue;
    }
    ++it;
  }
}

void omega_lc::on_member_removed(const membership::member_info& member) {
  accusation_elector::on_member_removed(member);
  if (!peers_.contains(member.pid)) pending_accuse_.erase(member.pid);
}

bool omega_lc::fresh(const membership::member_info& m) const {
  if (m.node == ctx_.self_node) return m.pid == ctx_.self_pid;
  return ctx_.is_trusted(m.node);
}

std::optional<accusation_elector::rank> omega_lc::local_stage(
    const std::vector<membership::member_info>& members) const {
  std::optional<rank> best;
  for (const auto& m : members) {
    if (!m.candidate || !fresh(m)) continue;
    time_point acc;
    if (m.pid == ctx_.self_pid) {
      acc = self_acc_;
    } else {
      auto it = peers_.find(m.pid);
      if (it == peers_.end() || it->second.inc != m.inc) continue;  // no data yet
      acc = it->second.acc_time;
    }
    const rank r{acc, m.pid};
    if (!best || r < *best) best = r;
  }
  return best;
}

std::optional<accusation_elector::rank> omega_lc::decide(
    const std::vector<membership::member_info>& members) {
  // Evidence may have changed since the last event batch: fire or cancel
  // held-back accusations first.
  recheck_pending_accusations();

  // Stage 2: gather (local leader, accusation time) reports from every
  // fresh member plus our own stage-1 result, keeping for each mentioned
  // candidate the *latest* accusation time we can see anywhere (accusation
  // times only grow, so max is the freshest knowledge).
  std::unordered_map<process_id, time_point>& mentioned = mentioned_scratch_;
  mentioned.clear();
  const auto mention = [&](process_id pid, time_point acc) {
    if (!pid.valid() || !candidate_inc(pid)) return;
    auto [it, inserted] = mentioned.try_emplace(pid, acc);
    if (!inserted) it->second = std::max(it->second, acc);
  };

  stage1_cache_ = local_stage(members);
  stage1_cached_ = true;
  if (stage1_cache_) mention(stage1_cache_->pid, stage1_cache_->acc);
  if (opts_.forwarding) {
    for (const auto& m : members) {
      if (m.pid == ctx_.self_pid || !fresh(m)) continue;
      auto it = peers_.find(m.pid);
      if (it == peers_.end() || it->second.inc != m.inc) continue;
      mention(it->second.local_leader, it->second.local_leader_acc);
    }
  }
  // Refine with directly-known accusation times.
  for (auto& [pid, acc] : mentioned) {
    if (pid == ctx_.self_pid) {
      acc = std::max(acc, self_acc_);
    } else if (auto it = peers_.find(pid); it != peers_.end()) {
      acc = std::max(acc, it->second.acc_time);
    }
  }

  std::optional<rank> best;
  for (const auto& [pid, acc] : mentioned) {
    const rank r{acc, pid};
    if (!best || r < *best) best = r;
  }
  return best;
}

void omega_lc::fill_payload(proto::group_payload& payload) {
  payload.group = ctx_.group;
  payload.pid = ctx_.self_pid;
  payload.candidate = ctx_.candidate;
  payload.competing = true;  // every alive process is active in Omega_lc
  payload.accusation_time = self_acc_;
  // Stage-1 result travels in every heartbeat: this is the forwarding that
  // lets peers elect a leader they cannot hear directly. The cached result
  // of the last evaluate() is current — every stage-1 input (payloads, FD
  // transitions, accusations, membership) re-evaluates before sending.
  const std::optional<rank> own =
      stage1_cached_ ? stage1_cache_ : local_stage(ctx_.members());
  if (own) {
    payload.local_leader = own->pid;
    payload.local_leader_acc = own->acc;
  } else {
    payload.local_leader = process_id::invalid();
    payload.local_leader_acc = time_point{};
  }
  payload.phase = 0;
}

}  // namespace omega::election
