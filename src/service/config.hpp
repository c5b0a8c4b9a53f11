// Configuration types of the leader-election service.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "adaptive/engine.hpp"
#include "common/ids.hpp"
#include "election/elector.hpp"
#include "fd/qos.hpp"
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
  /// Which of the three election algorithms this instance runs.
  election::algorithm alg = election::algorithm::omega_lc;
  /// Online QoS re-configuration: the tuning mode and whether the
  /// adaptation engine refines each link on its own.
  adaptive::engine_options adaptive{};
  /// Observability sink (metrics + structured trace), threaded through
  /// every module of the instance. Null (the default) disables the plane;
  /// instrumented sites then cost one pointer compare. The sink must
  /// outlive the service instance. Causal tracing (DESIGN.md §7) is the
  /// sink's switch: once the owner calls `sink->enable_causal(inc)` with
  /// this instance's incarnation, outbound datagrams carry the sink's
  /// current cause in a version-2 envelope; with it off they stay
  /// byte-identical version-1 datagrams.
  obs::sink* sink = nullptr;
};

/// Per-join parameters (paper §4: group id, candidacy, FD QoS). The
/// paper's two notification modes need no option: a process learns of
/// leader changes "by an interrupt from the service" through the join's
/// callback, "or by querying the service" through `leader()`.
struct join_options {
  /// Whether this process is willing to lead the group.
  bool candidate = true;
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
