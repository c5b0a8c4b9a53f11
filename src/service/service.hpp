// The leader-election service (paper §4, Figure 2).
//
// One instance runs per workstation. Application processes register with
// their local instance, then join/leave groups; for every joined group the
// instance wires together the three core modules:
//
//   Group Maintenance  — who is in the group (HELLO/LEAVE + ALIVE evidence),
//   Failure Detector   — Chen et al. QoS detector over node-level ALIVEs,
//   Election Algorithm — pluggable Omega_id / Omega_lc / Omega_l elector.
//
// The instance multiplexes all groups over a single node-level heartbeat
// stream (the shared-FD architecture of [6, 11] that amortizes monitoring
// cost across applications): each tick sends one ALIVE datagram per
// destination, and it carries the election payload of every group in which
// this node is actively transmitting and whose member table holds that
// destination. So a group's payload reaches exactly its own table, and each
// payload numbers its own group's heartbeat stream without gaps. The
// destinations that share a payload set share one encoding; the HELLO
// sweep groups its entries with the same planner (`net::fanout_plan`).
//
// Destroying the instance models a workstation crash: no goodbyes are sent
// and all volatile state vanishes. The churn injector of the experiment
// harness does exactly that, then constructs a fresh instance with a
// higher incarnation to model recovery.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "adaptive/engine.hpp"
#include "common/executor.hpp"
#include "common/ids.hpp"
#include "election/elector.hpp"
#include "fd/fd_manager.hpp"
#include "fd/rate_controller.hpp"
#include "membership/group_maintenance.hpp"
#include "net/fanout_plan.hpp"
#include "net/transport.hpp"
#include "proto/wire.hpp"
#include "service/config.hpp"

namespace omega::service {

/// Fired on leader changes: (group, new leader or nullopt while leaderless).
using leader_callback = std::function<void(group_id, std::optional<process_id>)>;

class leader_election_service {
 public:
  leader_election_service(clock_source& clock, timer_service& timers,
                          net::transport& transport, service_config config);
  ~leader_election_service();

  leader_election_service(const leader_election_service&) = delete;
  leader_election_service& operator=(const leader_election_service&) = delete;

  // ---- application API (paper §4) ---------------------------------------

  /// Registers an application process under a unique id. Must precede any
  /// join. Returns false if the id is already registered here.
  bool register_process(process_id pid);

  /// Unregisters a process, leaving all groups it joined.
  void unregister_process(process_id pid);

  /// Joins `pid` to `group`. At most one local process may be the node's
  /// member of a given group (the experiments' configuration; see
  /// DESIGN.md). `on_change`, if set, is invoked on every leader change
  /// (the paper's interrupt mode; `leader()` is its query mode). Returns
  /// false if the join is rejected (unregistered pid or group already
  /// joined locally).
  bool join_group(process_id pid, group_id group, const join_options& options,
                  leader_callback on_change = nullptr);

  /// Leaves the group: broadcasts LEAVE and drops all local group state.
  void leave_group(process_id pid, group_id group);

  /// Changes `pid`'s candidacy in `group` in place. Unlike leave +
  /// re-join (the historical way to flip the flag), this preserves the
  /// elector's learned state and current leader view — a re-join resets
  /// both, leaving the node transiently leaderless, and its LEAVE/JOIN
  /// datagrams can arrive reordered at peers (dropping the member until
  /// the next anti-entropy round). Becoming a candidate still ranks the
  /// process behind any established leader, exactly as a fresh join
  /// would. Returns false if `pid` has not joined `group`.
  bool set_candidacy(process_id pid, group_id group, bool candidate);

  /// Query-mode leader lookup: the current (cached) leader choice of this
  /// instance for `group`, or nullopt if unknown/leaderless.
  [[nodiscard]] std::optional<process_id> leader(group_id group) const;

  // ---- introspection -----------------------------------------------------

  [[nodiscard]] const service_config& config() const { return config_; }
  [[nodiscard]] const service_stats& stats() const { return stats_; }
  [[nodiscard]] node_id self() const { return config_.self; }
  /// The clock this instance runs on (sim or real time).
  [[nodiscard]] clock_source& clock() const { return clock_; }

  /// Current effective heartbeat interval of this sender.
  [[nodiscard]] duration current_eta() const;

  /// Membership view (empty table for unknown groups).
  [[nodiscard]] const membership::member_table& members(group_id group) const;

  /// The elector driving `group`, or nullptr (exposed for tests).
  [[nodiscard]] election::elector* elector_for(group_id group);

  /// The failure-detector module (exposed for tests and benchmarks).
  [[nodiscard]] fd::fd_manager& failure_detector() { return fd_; }

  /// The adaptation engine, or nullptr unless the instance runs in
  /// `adaptive::tuning_mode::adaptive` (exposed for tests and benchmarks).
  [[nodiscard]] adaptive::engine* adaptation() { return adaptive_.get(); }
  [[nodiscard]] const adaptive::engine* adaptation() const {
    return adaptive_.get();
  }

  /// Observer invoked on *every* leader change of any group, after the
  /// per-subscription callbacks. The experiment harness uses this to track
  /// ground-truth agreement.
  void set_leader_observer(leader_callback observer);

  /// The observability sink this instance records through (the one from
  /// `service_config::sink`), or nullptr. The hierarchy coordinator uses it
  /// to annotate its groups with tier numbers before joining them.
  [[nodiscard]] obs::sink* observability() const { return config_.sink; }

  /// Switches the membership-dissemination policy (see
  /// `membership::hello_fanout`; `all` until called). The hierarchy
  /// coordinator calls this with `roster` so hierarchical deployments stop
  /// paying for cluster-wide HELLO anti-entropy; flat deployments keep `all`.
  void set_hello_fanout(membership::hello_fanout fanout) { gm_.set_fanout(fanout); }
  [[nodiscard]] membership::hello_fanout hello_fanout() const { return gm_.fanout(); }

 private:
  struct group_state {
    group_id group;
    process_id local_pid;
    join_options options;
    std::unique_ptr<election::elector> elector;
    std::optional<process_id> last_leader;
    bool announced_leader_once = false;
    bool was_sending = false;
    /// Last self accusation time pushed to peers; a change triggers an
    /// eager ALIVE so demotions propagate in one delay, not one eta.
    time_point last_self_acc{};
    /// Per remote process, the (incarnation, seq) of the newest payload
    /// given to the elector. A payload at or below it arrived behind a
    /// newer one, so the elector never sees it: an Omega_l withdrawal
    /// overtaken by its own competition entry would otherwise re-add the
    /// contender, and T_D later the entry's stale evidence would make this
    /// node accuse a live process. The failure detector still sees every
    /// payload.
    std::unordered_map<process_id, std::pair<incarnation, std::uint64_t>> applied;
    leader_callback on_change;
  };

  // Wiring.
  void on_datagram(const net::datagram& dgram);
  /// Counts (and traces) a well-formed datagram addressed to a group this
  /// instance does not participate in.
  void note_unknown_group(group_id group, node_id from);
  void handle(const proto::alive_msg& msg);
  void handle(const proto::accuse_msg& msg);
  void handle(const proto::hello_msg& msg);
  void handle(const proto::hello_ack_msg& msg);
  void handle(const proto::leave_msg& msg);
  void handle(const proto::rate_request_msg& msg);

  // Election plumbing.
  void reevaluate(group_id group);
  election::elector_context make_context(group_id group, process_id pid,
                                         bool candidate);

  // Heartbeat engine.
  void schedule_alive();
  void alive_tick();
  /// Sends one ALIVE immediately to every member of a sending group's
  /// table, carrying the payloads of the sending groups whose tables hold
  /// that destination. When `extra_group` is set, its payload is included
  /// even if its elector is no longer sending (the Omega_l "graceful
  /// withdrawal" final heartbeat).
  void send_alive_now(std::optional<group_id> extra_group = std::nullopt);

  /// The one outbound path: counts `msg`, stamps the sink's current cause
  /// into its envelope (none for RATE_REQ), encodes it once into the
  /// transport's pool and fans the payload out to `dsts`. Sends nothing,
  /// and counts nothing, without a destination.
  void send(std::span<const node_id> dsts, const proto::wire_message& msg);
  void count_sent(const proto::wire_message& msg, std::size_t destinations);

  /// The installation roster minus this node: the destinations of a
  /// cluster-wide announce.
  std::vector<node_id> roster_peers_;

  /// Scratch of `send_alive_now`, reused across ticks so a warm tick
  /// allocates nothing: the sending groups' payloads, the plan that gives
  /// each destination its payloads and names the distinct sets, and the
  /// ALIVE each set is encoded from.
  std::vector<proto::group_payload> alive_payloads_;
  net::fanout_plan alive_plan_;
  proto::wire_message alive_scratch_;

  /// Receive scratch for on_datagram: decode_into reuses its vectors, so a
  /// steady stream of ALIVEs parses without allocating. Handlers only see
  /// it as a const reference and must copy anything they keep.
  proto::wire_message rx_scratch_;

  clock_source& clock_;
  timer_service& timers_;
  net::transport& transport_;
  service_config config_;
  service_stats stats_;

  fd::fd_manager fd_;
  membership::group_maintenance gm_;
  fd::rate_controller rate_;
  std::unique_ptr<adaptive::engine> adaptive_;

  std::unordered_map<process_id, bool> registered_;  // pid -> exists
  std::unordered_map<group_id, group_state> groups_;

  scoped_timer alive_timer_;
  /// Per-group heartbeat counters (`group_payload::seq`); they outlive
  /// leave/rejoin, so no stream restarts or gaps without a lost datagram.
  std::unordered_map<group_id, std::uint64_t> payload_seq_;
  time_point last_alive_sent_{};
  time_point alive_due_{};  // when alive_timer_ fires (or last fired)

  leader_callback leader_observer_;
};

}  // namespace omega::service
