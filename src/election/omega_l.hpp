// S3 / Omega_l: communication-efficient stable leader election
// (paper §6.4; algorithm of Aguilera, Delporte-Gallet, Fauconnier,
// Toueg [2]).
//
// Same (accusation time, pid) ranking as Omega_lc (`accusation_elector`),
// but a process only counts contenders it hears *directly*, and a process
// that sees a better contender voluntarily withdraws from the competition
// by simply ceasing to send ALIVEs. Eventually only the leader transmits —
// O(n) messages per heartbeat interval instead of O(n^2) (Figure 6).
//
// Voluntary silence looks exactly like a crash to everyone else's failure
// detector, so withdrawn processes get accused. The algorithm's phase
// mechanism keeps such accusations from raising the accusation time (the
// stability mechanism described in §6.4): ALIVEs carry the sender's
// competition phase; an accusation referencing phase k only counts if the
// target is still competing in phase k. Each re-entry into the competition
// starts a new phase, so accusations triggered by the old silence are
// stale and ignored.
//
// The trade-off: there is no forwarding stage, so a crashed link between
// the leader and a follower cannot be masked — the follower starts its own
// competition and the group diverges until the link heals. This is why S3
// degrades under link crashes while S2 does not (Figure 7).
#pragma once

#include <cstdint>

#include "election/accusation_elector.hpp"

namespace omega::election {

class omega_l final : public accusation_elector {
 public:
  struct options {
    /// The phase guard on accusations. Disabling it (ablation) makes
    /// accusations earned by *voluntary* silence count, so every withdrawal
    /// permanently worsens the withdrawn process's rank — the instability
    /// the mechanism exists to prevent.
    bool phase_guard = true;
  };

  explicit omega_l(elector_context ctx) : omega_l(std::move(ctx), {}) {}
  omega_l(elector_context ctx, options opts);

  void on_alive_payload(node_id from, incarnation inc,
                        const proto::group_payload& payload) override;
  void on_fd_transition(node_id node, bool trusted) override;
  void on_accuse(const proto::accuse_msg& msg) override;

  [[nodiscard]] bool should_send_alive() const override {
    return ctx_.candidate && competing_;
  }
  void fill_payload(proto::group_payload& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return opts_.phase_guard ? "omega_l" : "omega_l_nophase";
  }
  void set_candidate(bool candidate) override;

  [[nodiscard]] bool competing() const { return competing_; }
  [[nodiscard]] std::uint32_t phase() const { return phase_; }

 private:
  /// The competition's winner among the trusted candidate contenders and
  /// ourselves; entering or leaving the competition follows from it alone,
  /// so a memoized evaluation skips no state change.
  [[nodiscard]] std::optional<rank> decide(
      const std::vector<membership::member_info>& members) override;

  void note_competition(bool entered);

  options opts_;
  std::uint32_t phase_ = 0;
  bool competing_ = false;
};

}  // namespace omega::election
