// The accusation-time core shared by S2 (Omega_lc) and S3 (Omega_l), both
// from Aguilera, Delporte-Gallet, Fauconnier and Toueg [2, 4].
//
// Every process tracks its *accusation time*: the last time it was
// suspected of having crashed, initially its join time (becoming a
// candidate counts as joining). A freshly (re)started process therefore
// ranks behind any established leader, which makes the (accusation time,
// pid) order the stability order (DESIGN.md §5). An ACCUSE aimed at the
// local incarnation advances the time to "now"; ALIVE payloads carry it.
//
// This class owns the rank, the local accusation time, the ACCUSE intake
// and sending, the per-peer evidence of ALIVE payloads, the roster's
// candidate index and the evaluation memo; a subclass supplies `decide`,
// its algorithm's stage logic. The memo is exact (DESIGN.md §9): roster
// changes bump `members_version`, and every other event that can change a
// decision sets `memo_dirty_` — a payload only when its evidence changed.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "election/elector.hpp"

namespace omega::election {

class accusation_elector : public elector {
 public:
  void on_accuse(const proto::accuse_msg& msg) override;
  void on_member_removed(const membership::member_info& member) override;
  [[nodiscard]] std::optional<process_id> evaluate() final;
  [[nodiscard]] time_point self_accusation_time() const final { return self_acc_; }
  void set_candidate(bool candidate) override;

 protected:
  explicit accusation_elector(elector_context ctx);

  /// (accusation time, pid) lexicographic order; smaller wins.
  struct rank {
    time_point acc;
    process_id pid;
    friend bool operator<(const rank& a, const rank& b) {
      if (a.acc != b.acc) return a.acc < b.acc;
      return a.pid < b.pid;
    }
  };

  /// The election evidence of a peer's newest ALIVE payload. Each algorithm
  /// records the fields it uses; the others keep their defaults.
  struct peer {
    node_id node;
    incarnation inc = 0;
    bool candidate = false;
    time_point acc_time{};
    std::uint32_t phase = 0;  // Omega_l's competition phase
    process_id local_leader = process_id::invalid();  // Omega_lc's stage 1
    time_point local_leader_acc{};

    friend bool operator==(const peer&, const peer&) = default;
  };

  /// The algorithm's decision. `members` is the roster, read once per full
  /// evaluation.
  [[nodiscard]] virtual std::optional<rank> decide(
      const std::vector<membership::member_info>& members) = 0;
  /// False for our own payload and for one from an incarnation older than
  /// the peer's record.
  [[nodiscard]] bool admissible(process_id pid, incarnation inc) const;
  /// Stores `seen` as pid's evidence, keeping the larger accusation time
  /// (accusation times only grow), and dirties the memo if it changed.
  void record(process_id pid, peer seen);
  /// Sends an ACCUSE against the recorded incarnation and phase of pid.
  void accuse(process_id pid, const peer& st) const;
  /// The incarnation of candidate member `pid`; nullopt for a non-member or
  /// a non-candidate. Indexed once per roster version.
  [[nodiscard]] std::optional<incarnation> candidate_inc(process_id pid) const;

  time_point self_acc_;
  std::unordered_map<process_id, peer> peers_;
  bool memo_dirty_ = true;

 private:
  /// Newest suspicion timestamp processed per accuser: the dedup that makes
  /// on_accuse idempotent under message duplication.
  std::unordered_map<node_id, time_point> accuse_processed_;
  std::unordered_map<process_id, incarnation> candidates_;
  /// Roster version of the last full evaluation (and of `candidates_`).
  std::optional<std::uint64_t> evaluated_version_;
  std::optional<process_id> memo_;
};

}  // namespace omega::election
