// Service-layer observability: sink wiring, trace events emitted by the
// protocol modules, unknown-group drop accounting, per-group stats pruning
// and the service_stats -> registry export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/sim_network.hpp"
#include "obs/causal_graph.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/service_export.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "proto/wire.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace omega::service {
namespace {

const group_id g1{1};
const group_id g2{2};

/// Like the service_api cluster, but every instance gets its own
/// registry + ring recorder through an obs::sink.
struct observed_cluster {
  explicit observed_cluster(std::size_t n,
                            election::algorithm alg = election::algorithm::omega_lc,
                            bool causal = false)
      : net(sim, n, net::link_profile::lan(), rng{11}) {
    for (std::size_t i = 0; i < n; ++i) roster.push_back(node_id{i});
    for (std::size_t i = 0; i < n; ++i) {
      auto o = std::make_unique<node_obs>();
      service_config cfg;
      cfg.self = node_id{i};
      cfg.roster = roster;
      cfg.alg = alg;
      cfg.sink = &o->sink;
      if (causal) o->sink.enable_causal(cfg.inc);
      obs.push_back(std::move(o));
      services.push_back(std::make_unique<leader_election_service>(
          sim, sim, net.endpoint(node_id{i}), cfg));
    }
  }

  leader_election_service& at(std::size_t i) { return *services[i]; }
  std::vector<obs::trace_event> events_of(std::size_t i) {
    return obs[i]->ring.events();
  }
  bool has_event(std::size_t i, obs::event_kind kind) {
    auto events = events_of(i);
    return std::any_of(events.begin(), events.end(),
                       [kind](const auto& ev) { return ev.kind == kind; });
  }
  void settle(duration d = sec(5)) { sim.run_until(sim.now() + d); }

  struct node_obs {
    obs::registry reg;
    obs::ring_recorder ring{1024};
    obs::sink sink{&reg, &ring};
  };

  sim::simulator sim;
  net::sim_network net;
  std::vector<node_id> roster;
  std::vector<std::unique_ptr<node_obs>> obs;
  std::vector<std::unique_ptr<leader_election_service>> services;
};

TEST(ServiceObs, SinkStampsRecordingNode) {
  observed_cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle();
  auto events = c.events_of(1);
  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) EXPECT_EQ(ev.node, node_id{1});
}

TEST(ServiceObs, LeaderChangeAndJoinEventsRecorded) {
  observed_cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle();
  ASSERT_TRUE(c.at(0).leader(g1).has_value());
  EXPECT_TRUE(c.has_event(0, obs::event_kind::leader_change));
  EXPECT_TRUE(c.has_event(0, obs::event_kind::member_join));
  // The recorded leader matches the service's answer.
  auto events = c.events_of(0);
  std::optional<process_id> last;
  for (const auto& ev : events) {
    if (ev.kind == obs::event_kind::leader_change && ev.group == g1) {
      last = ev.subject.valid() ? std::optional(ev.subject) : std::nullopt;
    }
  }
  EXPECT_EQ(last, c.at(0).leader(g1));
}

TEST(ServiceObs, SuspicionAndAccusationEventsOnCrash) {
  observed_cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  const auto leader = c.at(2).leader(g1);
  ASSERT_TRUE(leader.has_value());
  const std::size_t victim = leader->value();
  ASSERT_NE(victim, 2u);  // highest id never wins the paper's ranking

  c.services[victim].reset();  // crash: heartbeats stop
  c.settle(sec(30));

  const std::size_t observer = victim == 0 ? 1 : 0;
  auto events = c.events_of(observer);
  bool suspected = false;
  for (const auto& ev : events) {
    if (ev.kind == obs::event_kind::suspicion_raised &&
        ev.peer == node_id{victim}) {
      suspected = true;
      EXPECT_GT(ev.value, 0.0) << "seconds since last heartbeat";
    }
  }
  EXPECT_TRUE(suspected);
  EXPECT_TRUE(c.has_event(observer, obs::event_kind::accusation_sent));
  // And a survivor took over.
  const auto new_leader = c.at(observer).leader(g1);
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_NE(*new_leader, *leader);
}

TEST(ServiceObs, CandidacyFlipRecorded) {
  observed_cluster c(1);
  c.at(0).register_process(process_id{0});
  join_options opts;
  opts.candidate = false;
  c.at(0).join_group(process_id{0}, g1, opts);
  c.settle();
  ASSERT_TRUE(c.at(0).set_candidacy(process_id{0}, g1, true));
  auto events = c.events_of(0);
  auto it = std::find_if(events.begin(), events.end(), [](const auto& ev) {
    return ev.kind == obs::event_kind::candidacy_flip;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->subject, process_id{0});
  EXPECT_DOUBLE_EQ(it->value, 1.0);
}

TEST(ServiceObs, UnknownGroupDropCountedAndTraced) {
  observed_cluster c(2);
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.settle(sec(2));
  ASSERT_EQ(c.at(0).stats().dropped_unknown_group, 0u);

  // A stale LEAVE for a group node 0 never joined (e.g. the sender has not
  // processed our own departure yet).
  proto::leave_msg leave;
  leave.from = node_id{1};
  leave.inc = 1;
  leave.group = g2;
  leave.pid = process_id{1};
  c.net.endpoint(node_id{1}).send(node_id{0}, proto::encode(leave));
  c.settle(sec(1));

  EXPECT_EQ(c.at(0).stats().dropped_unknown_group, 1u);
  auto events = c.events_of(0);
  auto it = std::find_if(events.begin(), events.end(), [](const auto& ev) {
    return ev.kind == obs::event_kind::unknown_group_drop;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->group, g2);
  EXPECT_EQ(it->peer, node_id{1});
}

TEST(ServiceObs, HelloByGroupPrunedOnLeave) {
  observed_cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
    c.at(i).join_group(process_id{i}, g2, {});
  }
  c.settle(sec(30));
  ASSERT_TRUE(c.at(0).stats().hello_by_group.contains(g1));
  ASSERT_TRUE(c.at(0).stats().hello_by_group.contains(g2));

  c.at(0).leave_group(process_id{0}, g1);
  // Departed groups must not keep stale accounting rows alive forever (a
  // long-lived instance cycling through many groups would leak them).
  EXPECT_FALSE(c.at(0).stats().hello_by_group.contains(g1));
  EXPECT_TRUE(c.at(0).stats().hello_by_group.contains(g2));
}

TEST(ServiceObs, ExportPublishesServiceStats) {
  observed_cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  obs::export_service_stats(c.obs[0]->reg, c.at(0));

  auto& reg = c.obs[0]->reg;
  const auto alive = reg.get_counter("omega_messages_sent_total",
                                     {{"kind", "alive"}, {"node", "0"}})
                         .value();
  EXPECT_EQ(alive, c.at(0).stats().alive_sent);
  EXPECT_GT(alive, 0u);
  const auto received =
      reg.get_counter("omega_datagrams_received_total", {{"node", "0"}}).value();
  EXPECT_EQ(received, c.at(0).stats().datagrams_received);
  EXPECT_GT(reg.get_gauge("omega_heartbeat_interval_seconds", {{"node", "0"}})
                .value(),
            0.0);

  // The whole registry renders and re-parses (the exposition smoke).
  auto samples = obs::parse_prometheus(obs::render_prometheus(reg));
  ASSERT_TRUE(samples.has_value());
  EXPECT_FALSE(samples->empty());
}

TEST(ServiceObs, ExportPublishesDropAndHelloFamilies) {
  observed_cluster c(2);
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.at(1).register_process(process_id{1});
  c.at(1).join_group(process_id{1}, g1, {});
  c.settle(sec(30));

  // Provoke one unknown-group drop so the reason-labelled series is live.
  proto::leave_msg leave;
  leave.from = node_id{1};
  leave.inc = 1;
  leave.group = g2;
  leave.pid = process_id{1};
  c.net.endpoint(node_id{1}).send(node_id{0}, proto::encode(leave));
  c.settle(sec(1));

  auto& reg = c.obs[0]->reg;
  obs::export_service_stats(reg, c.at(0));
  EXPECT_EQ(reg.get_counter("omega_datagrams_dropped_total",
                            {{"node", "0"}, {"reason", "unknown_group"}})
                .value(),
            c.at(0).stats().dropped_unknown_group);
  EXPECT_EQ(reg.get_counter("omega_datagrams_dropped_total",
                            {{"node", "0"}, {"reason", "unknown_group"}})
                .value(),
            1u);
  const auto hellos = reg.get_counter("omega_hello_emissions_total",
                                      {{"group", "1"}, {"node", "0"}})
                          .value();
  ASSERT_TRUE(c.at(0).stats().hello_by_group.contains(g1));
  EXPECT_EQ(hellos, c.at(0).stats().hello_by_group.at(g1).hellos);
  EXPECT_GT(hellos, 0u);
  EXPECT_GT(reg.get_counter("omega_hello_destinations_total",
                            {{"group", "1"}, {"node", "0"}})
                .value(),
            0u);
}

TEST(ServiceObs, HeartbeatInterarrivalHistogramPerClass) {
  observed_cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});  // default class: interactive
  }
  c.settle(sec(30));

  // Node 0 heard many ALIVEs from its two peers; every gap after the first
  // heartbeat of a remote lands one sample in the class-labelled histogram.
  auto& h = c.obs[0]->reg.get_histogram(
      "omega_heartbeat_interarrival_seconds",
      {{"class", "interactive"}, {"node", "0"}}, {});
  EXPECT_GT(h.count(), 10u);
  // The paper's default QoS puts eta at detection/4 = 0.25 s; the mean
  // inter-arrival must sit near it (lossless LAN, two senders).
  const double mean = h.sum() / static_cast<double>(h.count());
  EXPECT_GT(mean, 0.05);
  EXPECT_LT(mean, 1.0);
}

TEST(ServiceObs, CausalChainsLinkAcrossNodes) {
  // End-to-end causal plane at the service layer: stamping on, a crashed
  // leader, and the survivors' merged rings must rebuild into a DAG that
  // explains the failover (the same gate the harness and udp_live enforce).
  observed_cluster c(3, election::algorithm::omega_lc, /*causal=*/true);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  const auto leader = c.at(2).leader(g1);
  ASSERT_TRUE(leader.has_value());
  const std::size_t victim = leader->value();
  ASSERT_NE(victim, 2u);

  const time_point crash_at = c.sim.now();
  c.services[victim].reset();
  c.settle(sec(30));

  std::vector<obs::trace_event> merged;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto evs = c.events_of(i);
    merged.insert(merged.end(), evs.begin(), evs.end());
  }
  const auto graph = obs::causal_graph::build(merged);
  const auto report =
      graph.linkage(node_id{victim}, process_id{victim}, crash_at, c.sim.now());
  EXPECT_GT(report.considered, 0u);
  EXPECT_GE(report.evidence_roots, 1u);
  EXPECT_EQ(report.dangling, 0u);
  EXPECT_GE(report.fraction(), 0.95)
      << report.linked << "/" << report.considered << " linked";

  // At least one resolved edge must cross nodes (an accusation received on
  // a different node than it was sent from).
  bool cross_node_edge = false;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const int parent = graph.cause_index(i);
    if (parent >= 0 &&
        graph.event(i).node != graph.event(static_cast<std::size_t>(parent)).node) {
      cross_node_edge = true;
      break;
    }
  }
  EXPECT_TRUE(cross_node_edge);
}

TEST(ServiceObs, RateRequestsStayUnstampedWhileAccusationsCarryTheirCause) {
  // The send path stamps the sink's current cause into every datagram but
  // a RATE_REQ, which is causally inert FD rate plumbing. Node 2 leaving the
  // tighter group g2 makes each peer's FD renegotiate node 2's rate while it
  // handles the LEAVE, inside that LEAVE's causal activation; the crash
  // makes the survivors accuse the dead leader inside their suspicions'.
  // With the causal plane off, nothing is stamped.
  struct sent {
    time_point at;
    std::uint8_t version;
    std::uint8_t kind;
  };
  const auto kind = [](proto::msg_kind k) { return static_cast<std::uint8_t>(k); };
  for (const bool causal : {true, false}) {
    observed_cluster c(3, election::algorithm::omega_lc, causal);
    std::vector<sent> wire;
    c.net.set_send_tap([&](node_id, node_id, std::span<const std::byte> bytes) {
      wire.push_back({c.sim.now(), std::to_integer<std::uint8_t>(bytes[0]),
                      std::to_integer<std::uint8_t>(bytes[1])});
    });
    join_options tight;
    tight.qos.detection_time = msec(500);
    for (std::uint32_t i = 0; i < 3; ++i) {
      c.at(i).register_process(process_id{i});
      c.at(i).join_group(process_id{i}, g1, {});
      c.at(i).join_group(process_id{i}, g2, tight);
    }
    c.settle(sec(10));
    c.at(2).leave_group(process_id{2}, g2);
    c.settle(sec(2));
    const auto leader = c.at(2).leader(g1);
    ASSERT_TRUE(leader.has_value());
    const std::size_t victim = leader->value();
    ASSERT_NE(victim, 2u);
    const time_point crash_at = c.sim.now();
    c.services[victim].reset();
    c.settle(sec(10));

    std::size_t rate_requests = 0;
    std::size_t stamped = 0;
    std::size_t stamped_accusations = 0;
    for (const sent& d : wire) {
      if (d.kind == kind(proto::msg_kind::rate_request)) {
        ++rate_requests;
        EXPECT_EQ(d.version, proto::protocol_version) << "causal " << causal;
      }
      if (d.version != proto::protocol_version_stamped) continue;
      ++stamped;
      if (d.kind == kind(proto::msg_kind::accuse) && d.at >= crash_at) {
        ++stamped_accusations;
      }
    }
    EXPECT_GT(rate_requests, 0u) << "causal " << causal;
    if (causal) {
      EXPECT_GT(stamped_accusations, 0u);
    } else {
      EXPECT_EQ(stamped, 0u);
    }
  }
}

TEST(ServiceObs, CausalOffLeavesWireAndTraceUnstamped) {
  observed_cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  for (std::size_t i = 0; i < 2; ++i) {
    for (const auto& ev : c.events_of(i)) {
      EXPECT_FALSE(ev.cause.valid());
      EXPECT_EQ(ev.wall_us, -1);
    }
  }
}

}  // namespace
}  // namespace omega::service
