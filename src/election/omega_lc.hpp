// S2 / Omega_lc: stable leader election tolerating lossy AND crashed links
// (paper §6.3; algorithm of Aguilera, Delporte-Gallet, Fauconnier, Toueg [4]).
//
// Candidates rank by `accusation_elector`'s (accusation time, pid) order:
// the one accused or (re)started least recently leads. All alive processes
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

#include <unordered_map>
#include <unordered_set>

#include "election/accusation_elector.hpp"

namespace omega::election {

class omega_lc final : public accusation_elector {
 public:
  struct options {
    /// Stage-2 local-leader forwarding. Disabling it (ablation) reduces the
    /// election to "earliest accusation time among directly trusted
    /// candidates" and forfeits the tolerance to crashed links (Figure 7).
    bool forwarding = true;
  };

  explicit omega_lc(elector_context ctx) : omega_lc(std::move(ctx), {}) {}
  omega_lc(elector_context ctx, options opts)
      : accusation_elector(std::move(ctx)), opts_(opts) {}

  void on_alive_payload(node_id from, incarnation inc,
                        const proto::group_payload& payload) override;
  void on_fd_transition(node_id node, bool trusted) override;
  void on_member_removed(const membership::member_info& member) override;

  [[nodiscard]] bool should_send_alive() const override { return true; }
  void fill_payload(proto::group_payload& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return opts_.forwarding ? "omega_lc" : "omega_lc_noforward";
  }

 private:
  [[nodiscard]] std::optional<rank> decide(
      const std::vector<membership::member_info>& members) override;
  /// Stage 1 over current membership; also returns the winner's acc time.
  [[nodiscard]] std::optional<rank> local_stage(
      const std::vector<membership::member_info>& members) const;

  [[nodiscard]] bool fresh(const membership::member_info& m) const;

  /// True if some *other* trusted peer currently reports `pid` as its local
  /// leader — the evidence that keeps a suspicion from becoming an ACCUSE.
  [[nodiscard]] bool forwarded_by_someone(process_id pid) const;

  /// Fires or cancels pending accusations as evidence changes; called from
  /// decide(). It reads only the peer map and trust verdicts, which change
  /// only through events that dirty the memo, so a served memo skips
  /// nothing.
  void recheck_pending_accusations();

  options opts_;
  /// Stage-1 result of the last decide(). fill_payload reuses it — every
  /// event that can change stage 1 re-runs evaluate() before the next send,
  /// so the O(roster) scan runs once per event batch, not once more per
  /// outgoing payload.
  std::optional<rank> stage1_cache_;
  bool stage1_cached_ = false;
  /// Directly-suspected candidates whose accusation is suppressed by
  /// forwarding evidence.
  std::unordered_set<process_id> pending_accuse_;

  /// Per-evaluation scratch, cleared on entry. evaluate() runs once per
  /// inbound payload, so rebuilding the map from a cold heap every call
  /// dominated the 500-node benches; clearing keeps its capacity.
  std::unordered_map<process_id, time_point> mentioned_scratch_;
};

}  // namespace omega::election
