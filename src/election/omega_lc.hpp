// S2 / Omega_lc: stable leader election tolerating lossy AND crashed links
// (paper §6.3; algorithm of Aguilera, Delporte-Gallet, Fauconnier, Toueg [4]).
//
// Every process tracks its *accusation time* — the last time it was
// suspected of having crashed (initially its join time, which is what makes
// a freshly recovered process rank behind any established leader). The
// accusation time is therefore the stability order: the candidate accused
// or (re)started least recently leads (DESIGN.md §5). All alive processes
// broadcast ALIVEs carrying their accusation time plus their current
// *local leader* choice. Leader selection is two-staged:
//
//   stage 1 (local):  earliest (accusation time, pid) among the candidates
//                     this process hears directly and trusts;
//   stage 2 (global): earliest (accusation time, pid) among the local
//                     leaders reported by every trusted process (plus own).
//
// Stage 2 — the local-leader *forwarding* mechanism — is what keeps the
// group agreed on a leader even when some links to it have crashed: a
// process that lost its direct link to the leader keeps electing it through
// the reports of its peers. The price is that every process must keep
// broadcasting: O(n^2) ALIVEs per heartbeat interval (Figure 6).
//
// When the failure detector of p starts suspecting q, p wants to accuse q
// so that an alive q advances its accusation time, demoting itself in the
// order. But accusing *every* direct suspicion would defeat the forwarding:
// a single crashed link q -> p would let p demote a perfectly good leader
// that everyone else still hears (and a *permanently* crashed link would
// demote working leaders forever). So the accusation is suppressed while
// some trusted peer still forwards q as its local leader — evidence that q
// is alive and only p's link is at fault. The suppressed accusation stays
// pending: if the forwarding evidence disappears too (q really crashed, or
// all its outbound links did), the accusation fires; if p's direct link
// heals first, it is cancelled. With the Chen et al. FD at its default QoS
// the detector essentially never errs, so on lossy links S2 makes zero
// unjustified demotions (Figure 4), and under link crashes the leader
// survives any outage that leaves it at least one working outbound link
// (Figure 7).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "election/elector.hpp"

namespace omega::election {

class omega_lc final : public elector {
 public:
  struct options {
    /// Stage-2 local-leader forwarding. Disabling it (ablation) reduces the
    /// election to "earliest accusation time among directly trusted
    /// candidates" and forfeits the tolerance to crashed links (Figure 7).
    bool forwarding = true;
  };

  explicit omega_lc(elector_context ctx) : omega_lc(std::move(ctx), {}) {}
  omega_lc(elector_context ctx, options opts);

  void on_alive_payload(node_id from, incarnation inc,
                        const proto::group_payload& payload) override;
  void on_fd_transition(node_id node, bool trusted) override;
  void on_accuse(const proto::accuse_msg& msg) override;
  void on_member_removed(const membership::member_info& member) override;

  [[nodiscard]] std::optional<process_id> evaluate() override;
  [[nodiscard]] bool should_send_alive() const override { return true; }
  void fill_payload(proto::group_payload& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return opts_.forwarding ? "omega_lc" : "omega_lc_noforward";
  }
  [[nodiscard]] time_point self_accusation_time() const override { return self_acc_; }
  void set_candidate(bool candidate) override;

 private:
  struct peer_state {
    node_id node;
    incarnation inc = 0;
    bool candidate = false;
    time_point acc_time{};
    process_id local_leader = process_id::invalid();
    time_point local_leader_acc{};
  };

  /// (accusation time, pid) lexicographic order; smaller wins.
  struct rank {
    time_point acc;
    process_id pid;
    friend bool operator<(const rank& a, const rank& b) {
      if (a.acc != b.acc) return a.acc < b.acc;
      return a.pid < b.pid;
    }
  };

  /// Stage 1 over current membership; also returns the winner's acc time.
  [[nodiscard]] std::optional<rank> local_stage(
      const std::vector<membership::member_info>& members) const;

  [[nodiscard]] bool fresh(const membership::member_info& m) const;

  /// True if some *other* trusted peer currently reports `pid` as its local
  /// leader — the evidence that keeps a suspicion from becoming an ACCUSE.
  [[nodiscard]] bool forwarded_by_someone(process_id pid) const;

  void send_accusation(process_id pid, const peer_state& st);
  /// Fires or cancels pending accusations as evidence changes; called from
  /// evaluate() so it runs after every batch of protocol events.
  void recheck_pending_accusations();

  options opts_;
  time_point self_acc_{};
  /// Stage-1 result of the last evaluate(). fill_payload reuses it — every
  /// event that can change stage 1 re-runs evaluate() before the next send,
  /// so the O(roster) scan runs once per event batch, not once more per
  /// outgoing payload.
  std::optional<rank> stage1_cache_;
  bool stage1_cached_ = false;
  std::unordered_map<process_id, peer_state> peers_;
  /// Directly-suspected candidates whose accusation is suppressed by
  /// forwarding evidence.
  std::unordered_set<process_id> pending_accuse_;
  /// Newest suspicion timestamp processed per accuser — the dedup that
  /// makes on_accuse idempotent under message duplication (ISSUE 10).
  std::unordered_map<node_id, time_point> accuse_processed_;

  /// Candidate members by pid, keyed by roster version (same contract as
  /// omega_l's index): candidate-flag changes bump the version, timestamp
  /// refreshes do not, so one rebuild serves every evaluation against the
  /// same roster.
  std::unordered_set<process_id> candidate_index_;
  bool candidate_index_valid_ = false;
  std::uint64_t candidate_index_version_ = 0;

  /// Per-evaluation scratch, cleared on entry. evaluate() runs once per
  /// inbound payload, so rebuilding the map from a cold heap every call
  /// dominated the 500-node benches; clearing keeps its capacity.
  std::unordered_map<process_id, time_point> mentioned_scratch_;

  /// Evaluation memo. evaluate() is a pure function of (peers_, self_acc_,
  /// trust verdicts, candidacy, roster) — every one of those inputs changes
  /// only through an observable event (payload that actually changed peer
  /// state, FD transition, ACCUSE, candidacy flip, roster version bump), so
  /// between such events the cached result is returned as-is. The memo is
  /// bypassed while accusations are pending (their recheck is time-driven).
  /// In steady state this turns the per-ALIVE O(roster) evaluation into
  /// O(1) — the difference between 2x and >3x on the 500-node bench.
  bool memo_dirty_ = true;
  std::optional<process_id> memo_result_;
  std::uint64_t memo_members_version_ = 0;
};

}  // namespace omega::election
