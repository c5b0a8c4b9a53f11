// Simulated cluster network.
//
// Owns one `link_model` per directed node pair, one transport endpoint per
// node, and the per-node traffic accounting used by the overhead figures.
// Delivery is an event on the discrete-event simulator after the
// link-sampled delay. Node liveness is controlled by the churn injector:
// datagrams to/from a crashed node are dropped, exactly like UDP datagrams
// addressed to a powered-off host.
//
// Hot-path design (DESIGN.md §9): datagrams are refcounted immutable
// `shared_payload` buffers drawn from one network-wide recycling pool — a
// multicast to a 500-node roster encodes and allocates once, and every
// delivery event holds a reference instead of a copy. Link crash/recovery
// processes are drawn lazily per link on first touch (the eager design
// armed O(n²) flip timers at enable time). Per-send bounds checks are
// debug asserts: node ids come from the roster, not from the wire.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/executor.hpp"
#include "common/ids.hpp"
#include "common/random.hpp"
#include "net/link_model.hpp"
#include "net/shared_payload.hpp"
#include "net/transport.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"

namespace omega::net {

class adversary;

class sim_network {
 public:
  /// Builds a fully connected network of `node_count` nodes where every
  /// directed link starts with `default_profile`. Each link gets an
  /// independent RNG stream split from `seed`.
  sim_network(sim::simulator& sim, std::size_t node_count,
              link_profile default_profile, rng seed);
  ~sim_network();

  sim_network(const sim_network&) = delete;
  sim_network& operator=(const sim_network&) = delete;

  [[nodiscard]] std::size_t node_count() const { return endpoints_.size(); }

  /// Endpoint for `node`; valid for the lifetime of the network.
  [[nodiscard]] transport& endpoint(node_id node);

  /// Marks a node up/down. A down node neither sends nor receives.
  void set_node_alive(node_id node, bool alive);

  /// Replaces the steady-state profile of every directed link.
  void set_all_link_profiles(link_profile profile);
  /// Replaces the profile of one directed link (from -> to).
  void set_link_profile(node_id from, node_id to, link_profile profile);

  /// Enables the link crash/recovery process on every directed link
  /// (paper §6.1, "links prone to crashes"). Each link alternates
  /// independently; the first up-period starts now. Flip times are drawn
  /// lazily from each link's own RNG stream when the link is next touched
  /// (a message transits or `link_up` is queried) — no timers are armed.
  void enable_link_crashes(link_crash_profile profile);

  /// Forces one directed link up or down (tests and targeted experiments).
  void force_link_state(node_id from, node_id to, bool up);
  [[nodiscard]] bool link_up(node_id from, node_id to);

  /// Traffic totals for one node since construction (or last reset).
  [[nodiscard]] const traffic_totals& traffic(node_id node) const;
  /// Zeroes all per-node traffic totals *and* the cluster-wide drop
  /// counters, so drop rates are measured over the same window as traffic.
  void reset_traffic();

  /// Shared buffer pool of this network (also reachable via any endpoint's
  /// `transport::pool()`). Exposed for white-box recycling tests.
  [[nodiscard]] payload_pool& buffer_pool() { return pool_; }

  /// Observer of every datagram accepted for transmission (sender alive),
  /// invoked before loss/crash drops — the same population `traffic()`
  /// counts as sent. Benches use it with `proto::peek_kind` to split
  /// traffic by message type; pass an empty function to remove.
  using send_tap =
      std::function<void(node_id from, node_id to, std::span<const std::byte>)>;
  void set_send_tap(send_tap tap) { tap_ = std::move(tap); }

  /// Attaches the scoped-timer profiler: every datagram delivery is timed
  /// (host time, steady_clock) under the label of its wire message kind —
  /// the per-event-kind execution-time histograms of the observability
  /// plane. Null (default) disables; virtual time and event order are
  /// never affected either way.
  void set_profiler(obs::profiler* profiler) { profiler_ = profiler; }

  /// Installs (or removes, with nullptr) the scriptable fault plane. With
  /// no adversary installed the hot path is byte-identical to the
  /// pre-adversary simulator — the golden-trace fingerprints guard this.
  /// The adversary must outlive the network or be removed first.
  void install_adversary(adversary* adv) { adversary_ = adv; }
  [[nodiscard]] adversary* fault_plane() { return adversary_; }

  /// Cluster-wide totals of datagrams dropped by links (loss + crash) and
  /// dropped because the destination node was down.
  [[nodiscard]] std::uint64_t dropped_by_links() const { return dropped_by_links_; }
  [[nodiscard]] std::uint64_t dropped_dead_node() const { return dropped_dead_node_; }
  /// Datagrams dropped by the installed adversary (all fault classes).
  [[nodiscard]] std::uint64_t dropped_by_adversary() const {
    return dropped_by_adversary_;
  }

 private:
  class endpoint_impl;
  friend class endpoint_impl;

  [[nodiscard]] std::size_t link_index(node_id from, node_id to) const;
  /// Accounting + tap + link fate for one datagram of `size` bytes.
  /// Returns false when the datagram dies before the wire (dead sender) or
  /// on it (loss / crashed link); otherwise `delay` holds the transit time.
  bool admit(node_id from, node_id to, std::span<const std::byte> payload,
             duration& delay);
  void on_send(node_id from, node_id to, std::span<const std::byte> payload);
  void on_send(node_id from, node_id to, shared_payload payload);
  /// Schedules one admitted datagram plus any adversary-planned duplicates
  /// (every extra delivery shares the same refcounted buffer).
  void dispatch(node_id from, node_id to, duration delay,
                shared_payload payload);
  void schedule_delivery(node_id from, node_id to, duration delay,
                         shared_payload payload);
  void deliver_now(node_id from, node_id to, const shared_payload& payload);

  sim::simulator& sim_;
  link_crash_profile crash_profile_;
  time_point crash_anchor_{};
  std::vector<std::unique_ptr<endpoint_impl>> endpoints_;
  std::vector<link_model> links_;  // row-major [from][to]
  std::vector<bool> alive_;
  std::vector<traffic_totals> traffic_;
  payload_pool pool_;
  send_tap tap_;
  obs::profiler* profiler_ = nullptr;
  adversary* adversary_ = nullptr;
  std::uint64_t dropped_by_links_ = 0;
  std::uint64_t dropped_dead_node_ = 0;
  std::uint64_t dropped_by_adversary_ = 0;
};

}  // namespace omega::net
