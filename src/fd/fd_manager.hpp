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
// external tuning policy pins a group default and per-remote refinements in
// the group's record, so one bad WAN link never drags every clean LAN link
// in the group down to the worst link's delta.
// Loss is counted per (remote, group) heartbeat stream, since a remote
// sends each group's payload only to that group's members. The pass's
// cadence, the rate hysteresis and refresh, and the GC and silence
// cutoffs are constants below: the detector has one configuration.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/executor.hpp"
#include "common/ids.hpp"
#include "fd/configurator.hpp"
#include "fd/heartbeat_monitor.hpp"
#include "fd/link_quality_estimator.hpp"
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
  /// groups fall under "default". The label lives in the group's record:
  /// labelling a group that is not registered is ignored, and remove_group
  /// forgets the label, so a re-added group starts under "default".
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

  /// Starts / stops the periodic reconfiguration loop.
  void start();
  void stop();

  /// True iff a monitor exists and currently trusts the remote in `group`.
  [[nodiscard]] bool is_trusted(group_id group, node_id remote) const;

  /// Current link estimate for a remote (defaults if never heard).
  [[nodiscard]] link_estimate link_quality(node_id remote) const;

  /// Operating point for (group, remote): the group's pinned point
  /// (refinement, else default), else the configured eta this monitor asks
  /// for with delta = T^U_D - eta.
  /// An unpinned monitor that asks for nothing yet (cold estimate, unknown
  /// remote) reads eta 0 and delta T^U_D, its horizon.
  [[nodiscard]] fd_params current_params(group_id group, node_id remote) const;

  /// Pins the group's default operating point: the periodic
  /// reconfiguration pass stops consulting the configurator for the
  /// group's links and applies the resolved params (monitor deltas
  /// immediately, sender rates on the next pass). A pinned monitor trusts
  /// a heartbeat sent at s with interval eta until s + eta + the pinned
  /// delta.
  /// This is how an external tuning policy — the adaptation engine, or a
  /// frozen baseline — takes over from the built-in per-tick configurator.
  /// Remotes with a per-remote refinement keep their refinement. The plan
  /// calls below ignore a group that was never added (or was removed).
  void set_params_override(group_id group, fd_params params);
  /// Pins the operating point of one (group, remote) link — a per-remote
  /// refinement. Takes precedence over the group default.
  void set_params_override(group_id group, node_id remote, fd_params params);
  /// Clears the group's default and all its refinements; its monitors
  /// return to delta = T^U_D - eta at once.
  void clear_params_override(group_id group);
  /// Clears one per-remote refinement; the group default (if any) applies
  /// again on the next reconfiguration pass, else the monitor returns to
  /// delta = T^U_D - eta at once.
  void clear_params_override(group_id group, node_id remote);
  /// The group default, if pinned.
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

  /// Total per-remote refinement entries across all groups — the per-link
  /// override memory whose scaling the large-roster bench tracks.
  [[nodiscard]] std::size_t plan_refinement_count() const;

 private:
  /// One local group: its QoS, class label and pinned operating points.
  struct group_record {
    qos_spec qos;
    /// QoS class label of the inter-arrival histograms (set_group_class).
    std::string label = "default";
    /// The pinned group default; a per-remote refinement takes precedence.
    std::optional<fd_params> pinned;
    std::unordered_map<node_id, fd_params> refinements;

    /// The refinement for `remote` if there is one, else the default.
    [[nodiscard]] std::optional<fd_params> resolve(node_id remote) const {
      auto it = refinements.find(remote);
      return it != refinements.end() ? it->second : pinned;
    }
  };

  /// One monitored (group, remote) link.
  struct link_record {
    group_id group;
    std::unique_ptr<heartbeat_monitor> monitor;
    /// The pinned point, or the configured one once the estimate is warm.
    /// Empty while an unpinned monitor's estimate is cold, so that monitor
    /// has no say in the remote's rate.
    std::optional<fd_params> params;
    /// The group's class histogram, or null without a metrics registry.
    obs::histogram* interarrival = nullptr;

    void pin(fd_params p) {
      params = p;
      monitor->set_delta(p.delta);
    }
  };

  struct remote_state {
    incarnation inc = 0;
    link_quality_estimator lqe;
    /// Scanned linearly: a node shares only a handful of groups with a
    /// remote.
    std::vector<link_record> links;
    duration last_requested_eta{0};
    time_point last_rate_sent{};
    time_point last_heard{};

    [[nodiscard]] link_record* find(group_id group) {
      for (link_record& link : links) {
        if (link.group == group) return &link;
      }
      return nullptr;
    }
    [[nodiscard]] const link_record* find(group_id group) const {
      return const_cast<remote_state*>(this)->find(group);
    }
  };

  void tick();
  void reconfigure_all();
  void reconfigure_remote(node_id remote, remote_state& state);
  /// Min-combines the per-group etas currently stored for `remote` and
  /// sends a RATE_REQ when the result moved beyond the hysteresis band (or
  /// the periodic refresh is due). Called from the reconfiguration pass and
  /// immediately from `drop`.
  void renegotiate_rate(node_id remote, remote_state& state, time_point now);
  link_record& add_link(group_id group, const group_record& record,
                        node_id remote, remote_state& state);
  [[nodiscard]] const link_record* find_link(group_id group,
                                             node_id remote) const;
  /// Resolves the inter-arrival histogram cell of a class label (null
  /// without a metrics registry). Called when a link record is made or
  /// relabelled, never per ALIVE.
  [[nodiscard]] obs::histogram* interarrival_cell(const std::string& label);

  clock_source& clock_;
  timer_service& timers_;
  transition_handler on_transition_;
  rate_request_fn send_rate_request_;
  link_observer on_link_sample_;
  obs::sink* sink_ = nullptr;
  std::unordered_map<group_id, group_record> groups_;
  /// Its iteration order is the order of each pass's RATE_REQs.
  std::unordered_map<node_id, std::unique_ptr<remote_state>> remotes_;
  scoped_timer reconfig_timer_;
  bool running_ = false;
};

}  // namespace omega::fd
