#include "election/omega_l.hpp"

namespace omega::election {

omega_l::omega_l(elector_context ctx, options opts)
    : accusation_elector(std::move(ctx)), opts_(opts) {
  if (ctx_.candidate) {
    // A joining candidate competes until it hears someone better; its fresh
    // accusation time guarantees it loses against any established leader.
    competing_ = true;
    phase_ = 1;
  }
}

void omega_l::on_alive_payload(node_id from, incarnation inc,
                               const proto::group_payload& payload) {
  if (!admissible(payload.pid, inc)) return;
  if (!payload.competing || !payload.candidate) {
    // A final ALIVE with competing=false is a graceful withdrawal: drop the
    // contender right away instead of waiting for a timeout.
    if (peers_.erase(payload.pid) > 0) memo_dirty_ = true;
    return;
  }
  record(payload.pid, {.node = from,
                       .inc = inc,
                       .candidate = payload.candidate,
                       .acc_time = payload.accusation_time,
                       .phase = payload.phase});
}

void omega_l::on_fd_transition(node_id node, bool trusted) {
  memo_dirty_ = true;  // trust verdicts gate contender eligibility
  if (trusted) return;
  // Timeout on a contender: accuse it (tagged with the phase we last saw,
  // so a voluntary withdrawal in the meantime makes the accusation stale)
  // and drop it from the competition.
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (it->second.node != node) {
      ++it;
      continue;
    }
    accuse(it->first, it->second);
    it = peers_.erase(it);
  }
}

void omega_l::on_accuse(const proto::accuse_msg& msg) {
  // The stability mechanism: only a suspicion of our *current* competition
  // phase can demote us. Accusations earned by voluntary silence carry an
  // older phase and are ignored. (The ablation variant counts everything,
  // which punishes voluntary withdrawal — see options::phase_guard.)
  if (opts_.phase_guard && (!competing_ || msg.phase != phase_)) return;
  accusation_elector::on_accuse(msg);
}

std::optional<accusation_elector::rank> omega_l::decide(
    const std::vector<membership::member_info>&) {
  std::optional<rank> best;
  if (ctx_.candidate) best = rank{self_acc_, ctx_.self_pid};
  for (const auto& [pid, st] : peers_) {
    if (candidate_inc(pid) != st.inc || !ctx_.is_trusted(st.node)) continue;
    const rank r{st.acc_time, pid};
    if (!best || r < *best) best = r;
  }

  const bool now_competing = ctx_.candidate && best && best->pid == ctx_.self_pid;
  if (now_competing && !competing_) {
    competing_ = true;
    ++phase_;  // new competition epoch: accusations from the silence are stale
    note_competition(true);
  } else if (!now_competing && competing_) {
    competing_ = false;
    note_competition(false);
  }
  return best;
}

void omega_l::set_candidate(bool candidate) {
  if (ctx_.candidate == candidate) return;
  accusation_elector::set_candidate(candidate);
  if (candidate) {
    // Same entry semantics as a fresh candidate join: compete until we hear
    // someone better, ranked behind every established contender, in a new
    // phase so accusations earned by the listener silence are stale.
    competing_ = true;
    ++phase_;
    note_competition(true);
  } else if (competing_) {
    competing_ = false;  // the service's reevaluate sends the withdrawal
    note_competition(false);
  }
}

void omega_l::note_competition(bool entered) {
  if (!ctx_.sink) return;
  obs::trace_event ev;
  ev.kind = entered ? obs::event_kind::competition_enter
                    : obs::event_kind::competition_withdraw;
  ev.at = ctx_.clock->now();
  ev.group = ctx_.group;
  ev.subject = ctx_.self_pid;
  ev.value = static_cast<double>(phase_);
  ctx_.sink->record(ev);
}

void omega_l::fill_payload(proto::group_payload& payload) {
  payload.group = ctx_.group;
  payload.pid = ctx_.self_pid;
  payload.candidate = ctx_.candidate;
  payload.competing = competing_;
  payload.accusation_time = self_acc_;
  payload.phase = phase_;
  payload.local_leader = process_id::invalid();
  payload.local_leader_acc = time_point{};
}

}  // namespace omega::election
