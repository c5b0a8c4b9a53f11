#include "election/omega_lc.hpp"

#include <algorithm>

namespace omega::election {

omega_lc::omega_lc(elector_context ctx, options opts)
    : elector(std::move(ctx)), opts_(opts) {
  // Joining (or re-joining after a crash) counts as having just been
  // accused: an established leader always has an earlier accusation time,
  // which is exactly the stability property S1 lacks.
  self_acc_ = ctx_.clock ? ctx_.clock->now() : time_point{};
}

void omega_lc::on_alive_payload(node_id from, incarnation inc,
                                const proto::group_payload& payload) {
  if (payload.pid == ctx_.self_pid) return;
  auto it = peers_.find(payload.pid);
  if (it != peers_.end() && inc < it->second.inc) return;  // stale incarnation
  const bool existed = it != peers_.end();
  peer_state& st = existed ? it->second : peers_[payload.pid];
  const peer_state before = st;
  st.node = from;
  st.inc = inc;
  st.candidate = payload.candidate;
  st.acc_time = std::max(st.acc_time, payload.accusation_time);
  st.local_leader = payload.local_leader;
  st.local_leader_acc = payload.local_leader_acc;
  // The steady-state heartbeat repeats the same election evidence; only an
  // actual change can affect the next evaluation.
  if (!existed || before.node != st.node || before.inc != st.inc ||
      before.candidate != st.candidate || before.acc_time != st.acc_time ||
      before.local_leader != st.local_leader ||
      before.local_leader_acc != st.local_leader_acc) {
    memo_dirty_ = true;
  }
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
  if (!ctx_.send_accuse) return;
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
      send_accusation(pid, st);
    }
  }
}

bool omega_lc::forwarded_by_someone(process_id pid) const {
  if (!ctx_.is_trusted) return false;
  for (const auto& [reporter, st] : peers_) {
    if (reporter == pid || st.local_leader != pid) continue;
    if (ctx_.is_trusted(st.node)) return true;
  }
  return false;
}

void omega_lc::send_accusation(process_id pid, const peer_state& st) {
  if (!ctx_.send_accuse) return;
  proto::accuse_msg accuse;
  accuse.from = ctx_.self_node;
  accuse.from_inc = ctx_.self_inc;
  accuse.group = ctx_.group;
  accuse.target = pid;
  accuse.target_inc = st.inc;
  accuse.phase = 0;  // Omega_lc does not use phases
  accuse.when = ctx_.clock ? ctx_.clock->now() : time_point{};
  ctx_.send_accuse(accuse, st.node);
}

void omega_lc::recheck_pending_accusations() {
  for (auto it = pending_accuse_.begin(); it != pending_accuse_.end();) {
    const process_id pid = *it;
    auto peer = peers_.find(pid);
    if (peer == peers_.end()) {
      it = pending_accuse_.erase(it);  // removed from the group
      continue;
    }
    if (ctx_.is_trusted && ctx_.is_trusted(peer->second.node)) {
      it = pending_accuse_.erase(it);  // link healed: never accuse
      continue;
    }
    if (!forwarded_by_someone(pid)) {
      // The forwarding evidence is gone too: everyone lost it. Accuse.
      send_accusation(pid, peer->second);
      it = pending_accuse_.erase(it);
      continue;
    }
    ++it;
  }
}

void omega_lc::on_accuse(const proto::accuse_msg& msg) {
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
  const time_point now = ctx_.clock ? ctx_.clock->now() : time_point{};
  if (now > self_acc_) {
    self_acc_ = now;
    memo_dirty_ = true;
  }
}

void omega_lc::on_member_removed(const membership::member_info& member) {
  auto it = peers_.find(member.pid);
  if (it != peers_.end() && it->second.inc <= member.inc) {
    peers_.erase(it);
    pending_accuse_.erase(member.pid);
    memo_dirty_ = true;
  }
}

bool omega_lc::fresh(const membership::member_info& m) const {
  if (m.node == ctx_.self_node) return m.pid == ctx_.self_pid;
  return ctx_.is_trusted && ctx_.is_trusted(m.node);
}

std::optional<omega_lc::rank> omega_lc::local_stage(
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

std::optional<process_id> omega_lc::evaluate() {
  // Steady-state short-circuit: no input changed since the last full
  // evaluation, so the result (and the stage-1 cache fill_payload reads)
  // is still exact. Disqualifier: pending accusations (their recheck is
  // time-driven, not event-driven).
  const std::uint64_t roster_version =
      ctx_.members_version ? ctx_.members_version() : 0;
  if (!memo_dirty_ && stage1_cached_ && pending_accuse_.empty() &&
      ctx_.members_version && roster_version == memo_members_version_) {
    return memo_result_;
  }

  // Evidence may have changed since the last event batch: fire or cancel
  // held-back accusations first.
  recheck_pending_accusations();

  const auto& members = ctx_.members();
  // Candidate roster indexed per roster version: stage 2 mentions up to one
  // pid per member, and a linear is-candidate scan per mention would make
  // every evaluation O(n^2) — measurable at the hierarchy bench's 120-node
  // rosters.
  if (!candidate_index_valid_ || !ctx_.members_version ||
      roster_version != candidate_index_version_) {
    candidate_index_.clear();
    for (const auto& m : members) {
      if (m.candidate) candidate_index_.insert(m.pid);
    }
    candidate_index_version_ = roster_version;
    candidate_index_valid_ = ctx_.members_version != nullptr;
  }
  const auto is_candidate_member = [&](process_id pid) {
    return candidate_index_.find(pid) != candidate_index_.end();
  };

  // Stage 2: gather (local leader, accusation time) reports from every
  // fresh member plus our own stage-1 result, keeping for each mentioned
  // candidate the *latest* accusation time we can see anywhere (accusation
  // times only grow, so max is the freshest knowledge).
  std::unordered_map<process_id, time_point>& mentioned = mentioned_scratch_;
  mentioned.clear();
  const auto mention = [&](process_id pid, time_point acc) {
    if (!pid.valid() || !is_candidate_member(pid)) return;
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
  memo_result_ = best ? std::optional<process_id>(best->pid) : std::nullopt;
  memo_members_version_ = roster_version;
  memo_dirty_ = false;
  return memo_result_;
}

void omega_lc::set_candidate(bool candidate) {
  if (ctx_.candidate == candidate) return;
  ctx_.candidate = candidate;
  memo_dirty_ = true;
  if (candidate) {
    // Enter the order ranked behind every established candidate, exactly
    // like a fresh join would (the accusation time doubles as join time).
    self_acc_ = ctx_.clock ? ctx_.clock->now() : time_point{};
  }
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
