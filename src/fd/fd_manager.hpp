// Shared failure-detector module of one service instance (paper §3, §4).
//
// One fd_manager per workstation monitors every remote node the local
// groups care about, sharing a single link-quality estimator per remote
// across all groups (the cost-sharing idea of the Deianov-Toueg FD service
// architecture). Per (remote, group) it runs an NFD-S heartbeat monitor.
// Unless a tuning plan pins its delta, a monitor trusts a heartbeat until
// its send time + the group's T^U_D (delta = T^U_D - the announced eta), so
// every monitor of one sender in one group suspects it at the same
// instant. A periodic reconfiguration pass re-runs the configurator
// against each remote's own fresh link estimate to pick the eta each
// monitor asks for — this is what makes the detector adapt to changing
// network conditions — and renegotiates the senders' heartbeat rates with
// hysteresis. A monitor whose estimate holds fewer than `kMinSamples`
// samples asks for nothing, so a newcomer never pulls a settled sender to
// a cold-start rate. The unit of configuration is (group, remote): an
// external tuning policy pins operating points through a layered `param_plan`
// (group default + per-remote refinement), so one bad WAN link never drags
// every clean LAN link in the group down to the worst link's delta.
// Loss is counted per (remote, group) heartbeat stream, since a remote
// sends each group's payload only to that group's members. The pass's
// cadence, the rate hysteresis and refresh, and the GC and silence
// cutoffs are constants below: the detector has one configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/executor.hpp"
#include "common/ids.hpp"
#include "fd/configurator.hpp"
#include "fd/heartbeat_monitor.hpp"
#include "fd/link_quality_estimator.hpp"
#include "fd/param_plan.hpp"
#include "fd/qos.hpp"
#include "obs/sink.hpp"
#include "proto/wire.hpp"

namespace omega::fd {

class fd_manager {
 public:
  /// How often link estimates are re-read and (eta, delta) recomputed.
  static constexpr duration kReconfigInterval = sec(1);
  /// Relative change of requested eta that triggers a new RATE_REQ.
  static constexpr double kRateHysteresis = 0.10;
  /// RATE_REQs are refreshed at least this often while the remote lives.
  static constexpr duration kRateRefresh = sec(20);
  /// Suspected *and* silent monitors are garbage-collected after this.
  static constexpr duration kMonitorGcAfter = sec(120);
  /// Remotes silent for longer stop receiving RATE_REQs.
  static constexpr duration kRateSilenceCutoff = sec(30);

  /// (group, remote node, trusted?) on every trust/suspect edge.
  using transition_handler = std::function<void(group_id, node_id, bool)>;
  /// Called when a RATE_REQ should be sent to `node` asking for `eta`.
  using rate_request_fn = std::function<void(node_id, duration)>;
  /// Observes every link-estimate update: (remote, fresh estimate, time).
  /// The adaptation engine feeds its link tracker from this stream.
  using link_observer = std::function<void(node_id, const link_estimate&,
                                           time_point)>;

  fd_manager(clock_source& clock, timer_service& timers);
  ~fd_manager();

  fd_manager(const fd_manager&) = delete;
  fd_manager& operator=(const fd_manager&) = delete;

  void set_transition_handler(transition_handler handler);
  void set_rate_request_fn(rate_request_fn fn);
  void set_link_observer(link_observer observer);
  /// Attaches the observability sink; trust/suspect edges emit
  /// suspicion_raised / suspicion_cleared trace events. Null disables.
  void set_sink(obs::sink* sink) { sink_ = sink; }

  /// Registers a local group and the FD QoS its members require.
  void add_group(group_id group, const qos_spec& qos);
  void remove_group(group_id group);

  /// Labels the group's QoS service class ("interactive", "background"...)
  /// for the continuous heartbeat inter-arrival histograms
  /// (`omega_heartbeat_interarrival_seconds{class=...}`). Each received
  /// ALIVE observes its node-level inter-arrival gap once per distinct
  /// class among the carried groups this manager monitors. Unlabelled
  /// groups fall under "default".
  void set_group_class(group_id group, std::string label);

  /// Feeds one received ALIVE message: its delay sample at node level, then
  /// for every carried payload of a local group its stream counter (loss)
  /// and freshness (monitors are created lazily). Heartbeats from an
  /// unknown/old incarnation reset/discard state as appropriate.
  void on_alive(const proto::alive_msg& msg, time_point recv_time);

  /// Drops monitoring state for one (group, remote) — the member left —
  /// including the loss count of that (remote, group) stream.
  /// The remote's min-combined heartbeat rate is recomputed immediately
  /// (and a RATE_REQ sent if it relaxed beyond the hysteresis band), so a
  /// departed tight group stops pinning the remote to a fast rate until
  /// the next periodic refresh.
  void drop(group_id group, node_id remote);
  /// Drops all state for a remote node (it is known to be gone), including
  /// any per-remote plan refinements that name it.
  void drop_node(node_id remote);

  /// Starts / stops the periodic reconfiguration loop.
  void start();
  void stop();

  /// True iff a monitor exists and currently trusts the remote in `group`.
  [[nodiscard]] bool is_trusted(group_id group, node_id remote) const;

  /// Current link estimate for a remote (defaults if never heard).
  [[nodiscard]] link_estimate link_quality(node_id remote) const;

  /// Operating point for (group, remote): the plan's pinned point, else
  /// the configured eta this monitor asks for with delta = T^U_D - eta.
  /// An unpinned monitor that asks for nothing yet (cold estimate, unknown
  /// remote) reads eta 0 and delta T^U_D, its horizon.
  [[nodiscard]] fd_params current_params(group_id group, node_id remote) const;

  /// Pins the *group-default* layer of the group's operating-point plan:
  /// the periodic reconfiguration pass stops consulting the configurator
  /// for (group, remote) pairs the plan covers and applies the resolved
  /// params (monitor deltas immediately, sender rates on the next pass).
  /// A pinned monitor trusts a heartbeat sent at s with interval eta until
  /// s + eta + the pinned delta.
  /// This is how an external tuning policy — the adaptation engine, or a
  /// frozen baseline — takes over from the built-in per-tick configurator.
  /// Remotes with a per-remote refinement keep their refinement.
  void set_params_override(group_id group, fd_params params);
  /// Pins the operating point of one (group, remote) link — the per-remote
  /// refinement layer. Takes precedence over the group default.
  void set_params_override(group_id group, node_id remote, fd_params params);
  /// Clears the whole plan of a group (default and all refinements); its
  /// monitors return to delta = T^U_D - eta at once.
  void clear_params_override(group_id group);
  /// Clears one per-remote refinement; the group default (if any) applies
  /// again on the next reconfiguration pass, else the monitor returns to
  /// delta = T^U_D - eta at once.
  void clear_params_override(group_id group, node_id remote);
  /// The group-default layer, if pinned.
  [[nodiscard]] std::optional<fd_params> params_override(group_id group) const;
  /// The resolved override for one (group, remote): refinement, else
  /// group default, else nullopt.
  [[nodiscard]] std::optional<fd_params> params_override(group_id group,
                                                         node_id remote) const;

  /// The sending interval this manager currently asks `remote` to use
  /// (minimum over local groups). Zero if it has asked this incarnation
  /// for nothing yet (unknown remote, or its estimate is still cold).
  [[nodiscard]] duration requested_eta(node_id remote) const;

  /// Number of live (trusted or recently heard) monitors, for introspection.
  [[nodiscard]] std::size_t monitor_count() const;

  /// Total per-remote refinement entries across all group plans — the
  /// per-link override memory whose scaling the large-roster bench tracks.
  [[nodiscard]] std::size_t plan_refinement_count() const;

 private:
  void tick();

  struct remote_state {
    incarnation inc = 0;
    link_quality_estimator lqe;
    std::unordered_map<group_id, std::unique_ptr<heartbeat_monitor>> monitors;
    /// Per monitored group: the pinned point, or the configured one once
    /// the estimate is warm. Absent while an unpinned monitor's estimate
    /// is cold, so that monitor has no say in the remote's rate.
    std::unordered_map<group_id, fd_params> params;
    /// Positive-only lookup cache for the per-ALIVE hot path: (group,
    /// monitor, inter-arrival cell) triples known to be registered and
    /// monitored, scanned linearly (a node is in a handful of groups).
    /// Cleared whenever `monitors` shrinks or a class label changes;
    /// pointer targets are stable (unique_ptr map / registry cells).
    struct hot_entry {
      group_id group;
      heartbeat_monitor* monitor;
      /// The group's class histogram, or null without a metrics registry.
      obs::histogram* interarrival;
    };
    std::vector<hot_entry> hot;
    duration last_requested_eta{0};
    time_point last_rate_sent{};
    time_point last_heard{};
  };

  void reconfigure_all();
  void reconfigure_remote(node_id remote, remote_state& state);
  /// Removes `remote`'s refinement from every group plan (node gone/GC'd).
  void forget_remote_refinements(node_id remote);
  /// Min-combines the per-group etas currently stored for `remote` and
  /// sends a RATE_REQ when the result moved beyond the hysteresis band (or
  /// the periodic refresh is due). Called from the reconfiguration pass and
  /// immediately from `drop`.
  void renegotiate_rate(node_id remote, remote_state& state, time_point now);
  heartbeat_monitor& ensure_monitor(group_id group, const qos_spec& qos,
                                    node_id remote, remote_state& state);
  /// Returns the (group, remote) monitor in `state`, if any, to
  /// delta = T^U_D - eta once no plan layer pins it.
  void unpin(group_id group, remote_state& state);

  static constexpr std::uint64_t trust_key(group_id group, node_id remote) {
    return (static_cast<std::uint64_t>(group.value()) << 32) |
           static_cast<std::uint64_t>(remote.value());
  }
  /// Drops every (group, remote) trust entry backed by `state`'s monitors —
  /// the bulk-teardown paths (incarnation restart, node drop, GC) destroy
  /// possibly-trusted monitors without firing transitions, and the mirror
  /// must not outlive them.
  void forget_trust(node_id remote, const remote_state& state);

  clock_source& clock_;
  timer_service& timers_;
  transition_handler on_transition_;
  rate_request_fn send_rate_request_;
  link_observer on_link_sample_;
  /// Resolves the inter-arrival histogram cell for `group`'s class label
  /// (null without a metrics registry). Cheap enough for hot-cache fills
  /// only — the per-ALIVE path reads the cached cell.
  [[nodiscard]] obs::histogram* interarrival_cell(group_id group);

  obs::sink* sink_ = nullptr;
  std::unordered_map<group_id, qos_spec> groups_;
  /// QoS class labels per group (see set_group_class).
  std::unordered_map<group_id, std::string> classes_;
  std::unordered_map<group_id, param_plan> plans_;
  std::unordered_map<node_id, std::unique_ptr<remote_state>> remotes_;
  /// Mirror of "monitor exists and trusts" per (group, remote), maintained
  /// at every trust edge and every monitor teardown. `is_trusted` is called
  /// per contender per election evaluation, and the mirror answers it with
  /// one flat hash probe instead of two chained map lookups.
  std::unordered_set<std::uint64_t> trusted_pairs_;
  scoped_timer reconfig_timer_;
  bool running_ = false;
};

}  // namespace omega::fd
