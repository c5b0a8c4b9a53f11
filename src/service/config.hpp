// Configuration types of the leader-election service.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "adaptive/engine.hpp"
#include "common/ids.hpp"
#include "election/elector.hpp"
#include "fd/qos.hpp"
#include "membership/group_maintenance.hpp"
#include "obs/sink.hpp"

namespace omega::service {

/// Static configuration of one service instance (one per workstation).
struct service_config {
  /// This workstation's identity in the cluster.
  node_id self;
  /// Restart counter; the harness increments it on every recovery, standing
  /// in for the boot-id a real deployment would derive from the OS.
  incarnation inc = 1;
  /// All workstations that may run the service (the installation roster the
  /// paper's deployment configures per cluster). Join HELLOs (and, under
  /// `hello_fanout::all`, every HELLO/LEAVE) go to every roster node.
  std::vector<node_id> roster;
  /// Destination policy of the periodic HELLO anti-entropy and of LEAVE:
  /// `all` (default) broadcasts to the installation roster — the paper's
  /// behaviour, right for flat deployments where every node shares the one
  /// group anyway; `roster` scopes each announcement to the group rosters
  /// that can use it (the hierarchy coordinator requests this, since the
  /// cluster-wide broadcast is the dominant per-node cost there).
  membership::hello_fanout hello_fanout = membership::hello_fanout::all;
  /// Which of the three election algorithms this instance runs.
  election::algorithm alg = election::algorithm::omega_lc;
  /// Online QoS re-configuration: the tuning mode and whether the
  /// adaptation engine refines each link on its own.
  adaptive::engine_options adaptive{};
  /// Observability sink (metrics + structured trace), threaded through
  /// every module of the instance. Null (the default) disables the plane;
  /// instrumented sites then cost one pointer compare. The sink must
  /// outlive the service instance.
  obs::sink* sink = nullptr;
  /// Causal tracing (DESIGN.md §7): propagate cause ids through the sink's
  /// activation scopes and stamp them into the wire envelopes of causally
  /// potent datagrams (version-2 envelope). Off by default — stamping off
  /// is guaranteed byte-identical on the wire and in the trace JSONL to a
  /// build without the feature (the golden-trace guard pins this). Needs
  /// `sink` to do anything.
  bool causal_stamping = false;
};

/// How a joined process wants to learn about leader changes (paper §4:
/// "by an interrupt from the service ... or by querying the service").
enum class notification_mode {
  interrupt,  // callback on every leader change
  query,      // the process polls leader()
};

/// Per-join parameters (paper §4: group id, candidacy, notification mode,
/// FD QoS).
struct join_options {
  /// Whether this process is willing to lead the group.
  bool candidate = true;
  notification_mode notify = notification_mode::interrupt;
  /// Election algorithm for this group, overriding the instance-wide
  /// `service_config::alg`. The hierarchy coordinator uses this to run the
  /// link-crash-tolerant omega_lc inside regions while the listener-heavy
  /// global tier runs the communication-efficient omega_l (listeners never
  /// send ALIVE payloads there).
  std::optional<election::algorithm> alg;
  /// QoS of the underlying failure detector used for this group.
  fd::qos_spec qos{};
  /// Service class of this group's failure detection when the instance
  /// runs in adaptive tuning mode: `interactive` re-tunes toward minimum
  /// detection latency, `background` toward minimum heartbeat rate (both
  /// subject to `qos`). Ignored in continuous/frozen modes.
  adaptive::qos_class fd_class = adaptive::qos_class::interactive;
};

/// Counters exposed for tests, benchmarks and the overhead figures.
struct service_stats {
  std::uint64_t alive_sent = 0;
  std::uint64_t accuse_sent = 0;
  std::uint64_t hello_sent = 0;
  std::uint64_t hello_ack_sent = 0;
  std::uint64_t leave_sent = 0;
  std::uint64_t rate_request_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t malformed_received = 0;
  /// Well-formed datagrams addressed to a group this instance has not
  /// joined (or has already left) — late traffic racing a leave, or stale
  /// senders that have not yet processed our LEAVE. Previously these were
  /// silently ignored, indistinguishable from decode failures.
  std::uint64_t dropped_unknown_group = 0;

  /// Per-group HELLO dissemination accounting: how many HELLO emissions
  /// carried the group's entry and to how many destinations in total. Under
  /// `hello_fanout::all` every carried group is attributed the full roster
  /// fan-out; under `roster` scoping the per-group counts diverge — which
  /// is exactly what the fig12 economics and the scoping tests measure.
  struct group_hello_stats {
    std::uint64_t hellos = 0;
    std::uint64_t destinations = 0;
  };
  std::unordered_map<group_id, group_hello_stats> hello_by_group;
};

}  // namespace omega::service
