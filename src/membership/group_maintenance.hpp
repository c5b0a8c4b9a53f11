// Group Maintenance module (paper §4, Figure 2).
//
// Builds and maintains, for every group the local node participates in,
// (a) the set of processes currently in the group and (b) enough liveness
// bookkeeping for the service to derive the "active" subset. The protocol:
//
//  * on join, the node broadcasts HELLO (reply_requested) to the cluster
//    roster; peers answer with a unicast HELLO_ACK membership snapshot;
//  * HELLOs are re-sent periodically (anti-entropy) so lost packets and
//    recovered nodes converge — cluster-wide by default, or scoped to the
//    per-group rosters under `hello_fanout::roster` (see below);
//  * ALIVE messages implicitly refresh / create membership (a heartbeat
//    carrying a group payload is proof of membership). So the periodic
//    sweep leaves out a group's entry toward the nodes of that group's
//    table when an ALIVE carrying this node's payload of the group went out
//    since the previous sweep (`note_heartbeat`): each payload goes to
//    exactly its group's table, and it is the same first-hand evidence,
//    candidacy claim included. A node of the table that has been silent for
//    `kSilentAfter` still gets the entry: it may be cut off, and once the
//    link heals, that HELLO is what lets it find this node again before
//    either evicts the other. Every other announcement (join, discovery
//    probe, snapshot request, candidacy flip) carries every entry. Every
//    payload counts as evidence here, even one the network delivered
//    behind a newer one from the same sender; only the electors skip those
//    (the service applies a payload to its elector only if its `seq` is
//    the newest seen from that process incarnation);
//  * LEAVE removes a member immediately; crashed members are evicted after
//    an eviction timeout once the failure detector stops vouching for them;
//  * a node is the authority on its own members: it applies no snapshot
//    entry hosted on itself, whose flag may predate a demotion.
//
// This module is transport-agnostic: the owner injects send callbacks and
// a "does the FD still trust this member" predicate. One emission builds the
// periodic sweep and the announce of a demotion, in both fanouts: each
// group's entry goes to that group's destinations (see `hello_fanout`), the
// sweep leaves out the nodes the group's ALIVEs reached, and destinations
// that share their entries share one multicast (`net::fanout_plan`, the
// heartbeat tick's planner). So the sweep needs the multicast hook; the
// broadcast hook carries the cluster-wide join and promotion announces and,
// under `all`, LEAVE.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/executor.hpp"
#include "common/ids.hpp"
#include "membership/member_table.hpp"
#include "net/fanout_plan.hpp"
#include "obs/sink.hpp"
#include "proto/wire.hpp"

namespace omega::membership {

/// Destination policy of the periodic HELLO anti-entropy (and LEAVE).
///
/// `all` reproduces the paper's deployment: every announcement goes to the
/// whole installation roster (`set_cluster_roster`). That is the right
/// default for the flat 12-workstation clusters of the evaluation, but it is
/// the one remaining all-to-all path in a hierarchical deployment, where a
/// node shares groups with a handful of peers yet still gossips to all n of
/// them.
///
/// `roster` scopes dissemination to the peers that can use it:
///   * a *candidate* member's entry for a group goes to every node hosting
///     a member of that group (the group roster) — candidates must stay in
///     every member's view to be electable and to fan ALIVEs out;
///   * a *listener* (non-candidate) entry goes only to the nodes hosting
///     the group's *live* candidates — they are the ones that must keep
///     the listener in their tables (the leader sends it ALIVEs; the sweep
///     would otherwise evict it). Fellow listeners have no use for it. A
///     candidate is live while its own claim (`member_info::last_claim`:
///     its HELLO entry or ALIVE payload with `candidate` set, never a
///     snapshot's copy) is younger than `kClaimLifetime`; candidates
///     re-announce to their whole roster every sweep (by HELLO, or by the
///     ALIVEs that made the HELLO entry redundant), so a live one never
///     lapses, while a stale flag from a demotion or a snapshot does;
///   * a listener keeps only candidates and itself: it skips another
///     listener's entry from a HELLO (a join announcement or a discovery
///     probe), since nobody would refresh that copy and it would only be
///     evicted `kEvictionAfter` later;
///   * a HELLO_ACK snapshot carries only the groups the requester
///     announced. For a group where the requester announced itself a
///     listener it carries only the live candidates, plus the responder if
///     it is one: that is all a listener uses. A candidate requester gets
///     the whole table, since it must know the roster to lead it;
///   * the initial join HELLO (reply_requested) still goes cluster-wide:
///     it is the discovery bootstrap that seeds the rosters in the first
///     place, and it is O(roster) once per join, not per interval. Its
///     snapshot solicitation goes to a bounded set, the announced group's
///     live candidates first (only they hold its whole roster);
///   * each sweep additionally probes one roster node (`kAntiEntropyProbes`)
///     outside the scoped destination set (round-robin, reply_requested),
///     healing the rare gap where a join HELLO was lost *and* every
///     snapshot holder crashed.
enum class hello_fanout : std::uint8_t {
  all,     // cluster-wide broadcast (seed behaviour, flat deployments)
  roster,  // per-group scoped send (hierarchical deployments)
};

class group_maintenance {
 public:
  /// Bounded snapshot-solicitation set of a scoped join (known peers
  /// first, roster rotation as fallback): O(1) HELLO_ACKs per join
  /// instead of one from every roster node.
  static constexpr std::size_t kSnapshotFanout = 3;

  /// Period of the anti-entropy HELLO broadcast and eviction sweep.
  static constexpr duration kHelloInterval = sec(2);
  /// Members silent (no HELLO/ALIVE) for this long are evicted unless the
  /// failure detector still trusts their node.
  static constexpr duration kEvictionAfter = sec(30);
  /// Extra discovery probes per sweep in `roster` mode (see above).
  static constexpr std::size_t kAntiEntropyProbes = 1;
  /// How long a member's own candidacy claim keeps it a live candidate in
  /// `roster` mode. Candidates re-announce to their whole roster every
  /// sweep, so a live one never lapses; the margin covers one lost HELLO.
  static constexpr duration kClaimLifetime = 2 * kHelloInterval;
  /// A member this node has not heard from for this long may be cut off, so
  /// its ALIVEs may not be arriving: the sweep still sends it the entries of
  /// heartbeated groups. Every live member is heard at least once per sweep
  /// interval (its own ALIVEs or HELLOs); the margin covers one lost one.
  static constexpr duration kSilentAfter = 2 * kHelloInterval;

  struct options {
    /// Destination policy of HELLO/LEAVE dissemination (see `hello_fanout`).
    hello_fanout fanout = hello_fanout::all;
  };

  struct events {
    /// A member joined (or was discovered) in `group`.
    std::function<void(group_id, const member_info&)> on_member_joined;
    /// A member left, was evicted, or its old incarnation was replaced.
    std::function<void(group_id, const member_info&)> on_member_removed;
  };

  /// `broadcast` sends to every roster node except self; `unicast` to one;
  /// `multicast` to an explicit destination set (the planned sweep and
  /// demotion announce, snapshot requests, probes, scoped LEAVE).
  using broadcast_fn = std::function<void(const proto::wire_message&)>;
  using unicast_fn = std::function<void(node_id, const proto::wire_message&)>;
  using multicast_fn =
      std::function<void(const std::vector<node_id>&, const proto::wire_message&)>;
  /// Asks the FD whether `member`'s node is currently trusted in `group`.
  using vouch_fn = std::function<bool(group_id, const member_info&)>;

  group_maintenance(clock_source& clock, timer_service& timers, node_id self,
                    incarnation inc, options opts);
  ~group_maintenance();

  group_maintenance(const group_maintenance&) = delete;
  group_maintenance& operator=(const group_maintenance&) = delete;

  void set_broadcast(broadcast_fn fn) { broadcast_ = std::move(fn); }
  void set_unicast(unicast_fn fn) { unicast_ = std::move(fn); }
  void set_multicast(multicast_fn fn) { multicast_ = std::move(fn); }
  void set_vouch(vouch_fn fn) { vouch_ = std::move(fn); }
  void set_events(events ev) { events_ = std::move(ev); }
  /// Attaches the observability sink; membership churn (join, leave,
  /// eviction) emits trace events. Null disables.
  void set_sink(obs::sink* sink) { sink_ = sink; }

  /// Installation roster: the destinations of every `all`-mode sweep and
  /// demotion announce, and the pool of the `roster`-mode discovery probes
  /// and first snapshot targets.
  void set_cluster_roster(std::vector<node_id> roster);

  /// Switches the dissemination policy at runtime (takes effect from the
  /// next emission; the hierarchy coordinator requests `roster` scoping).
  void set_fanout(hello_fanout fanout) { opts_.fanout = fanout; }
  [[nodiscard]] hello_fanout fanout() const { return opts_.fanout; }

  /// Local process joins a group: recorded and announced immediately.
  void local_join(group_id group, process_id pid, bool candidate);

  /// Local process leaves: LEAVE is broadcast, membership updated.
  void local_leave(group_id group, process_id pid);

  /// Changes the local member's candidacy flag in place and announces it —
  /// the membership half of a promotion/demotion that keeps the group view
  /// (a leave + re-join resets every peer's state and the LEAVE/JOIN
  /// datagrams can arrive reordered). Becoming a candidate in roster mode
  /// re-announces cluster-wide and re-solicits bounded snapshots: the
  /// scoped listener traffic may have let this node's roster view age out,
  /// and a candidate must know the whole roster to lead it.
  void update_local_candidacy(group_id group, bool candidate);

  // ---- inbound protocol events (wired by the service) -------------------
  void on_hello(const proto::hello_msg& msg, time_point now);
  void on_hello_ack(const proto::hello_ack_msg& msg, time_point now);
  void on_leave(const proto::leave_msg& msg);
  /// ALIVE as implicit membership evidence for each carried group payload.
  void on_alive(const proto::alive_msg& msg, time_point now);

  /// The service sent this node's `group` payload in an ALIVE, which goes
  /// to every node of `group`'s table. Until the next sweep the nodes heard
  /// from within `kSilentAfter` get no periodic HELLO entry for `group` (see
  /// the file comment).
  void note_heartbeat(group_id group);

  /// Starts/stops the periodic HELLO + eviction sweep.
  void start();
  void stop();

  /// Membership of `group` (empty table if unknown group).
  [[nodiscard]] const member_table& table(group_id group) const;
  [[nodiscard]] std::vector<group_id> groups() const;
  /// The local member entry for `group`, if the local node joined it.
  [[nodiscard]] std::optional<member_info> local_member(group_id group) const;

  /// Nodes hosting members of `group`, self excluded (the group roster the
  /// scoped dissemination targets; empty for unknown groups).
  [[nodiscard]] std::vector<node_id> group_roster(group_id group) const;

 private:
  struct group_state {
    member_table table;
    std::optional<member_info> local;  // this node's process in the group
    /// An ALIVE carried this node's payload since the previous sweep.
    bool heartbeated = false;
  };

  void sweep();
  /// The HELLO emission of the sweep and the demotion announce: each
  /// group's entry goes to its `destinations`, one multicast per distinct
  /// entry set that `hello_plan_` names. A `sweep` leaves out each group's
  /// entry toward the nodes its ALIVEs reached; in `roster` mode discovery
  /// probes follow.
  void emit_hello(bool sweep);
  /// The nodes of a heartbeated group's table that need no periodic entry:
  /// those heard from within `kSilentAfter`. Empty for other groups.
  [[nodiscard]] std::unordered_set<node_id> reached(const group_state& state) const;
  [[nodiscard]] bool local_listener(group_id group) const;
  /// Per-group destination set of the planner: under `roster`, candidate
  /// -> group roster, listener -> live candidates' hosts; under `all`, the
  /// cluster roster minus self. Empty if the group has no local member.
  [[nodiscard]] std::vector<node_id> destinations(const group_state& state) const;
  [[nodiscard]] bool scoped_mode() const {
    return opts_.fanout == hello_fanout::roster;
  }
  /// The scoped join/promotion bootstrap: cluster-wide announce plus a
  /// bounded snapshot solicitation targeting `group`'s peers first.
  void scoped_announce(group_id group);
  [[nodiscard]] std::vector<node_id> snapshot_targets(group_id preferred);
  [[nodiscard]] proto::hello_msg build_hello(bool reply_requested) const;
  /// Membership snapshot. With a `request` (roster mode) it is scoped to
  /// the groups the requester announced: entries for groups it does not
  /// participate in are dead weight (its apply path drops them), and the
  /// full known world is O(cluster) large. For a group where the requester
  /// announced itself a listener, only the live candidates (and this node,
  /// if it is one) go in. Null = the seed's full snapshot (`all` fanout
  /// stays byte-identical). The receiver applies the entries as
  /// `evidence::snapshot`: they refresh membership but claim nothing.
  [[nodiscard]] proto::hello_ack_msg build_snapshot(
      const proto::hello_msg* request) const;
  void apply_upsert(group_id group, process_id pid, node_id node, incarnation inc,
                    bool candidate, time_point now,
                    evidence source = evidence::first_hand);
  void note_membership(obs::event_kind kind, group_id group, process_id pid,
                       node_id node);

  clock_source& clock_;
  scoped_timer sweep_timer_;
  node_id self_;
  incarnation inc_;
  options opts_;
  broadcast_fn broadcast_;
  unicast_fn unicast_;
  multicast_fn multicast_;
  vouch_fn vouch_;
  events events_;
  obs::sink* sink_ = nullptr;
  std::unordered_map<group_id, group_state> groups_;
  std::vector<node_id> cluster_roster_;
  std::size_t probe_cursor_ = 0;  // round-robin position in cluster_roster_
  net::fanout_plan hello_plan_;   // emit_hello's scratch, reused across sweeps
  bool running_ = false;
};

}  // namespace omega::membership
