// Causal forensics end-to-end on the sim harness: a stamped 3-tier run,
// a global-leader kill, and the DAG rebuilt from the merged per-node rings
// must (a) link >= 95% of the failover's events back to root-cause
// evidence about the victim, (b) attribute the outage into phase budgets
// within 5% of the same trace's attribution with cause ids cleared, and
// (c) expose the run over the embedded HTTP endpoint. Also covers the sim
// profiler histograms.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "obs/causal_graph.hpp"
#include "obs/exposition.hpp"

namespace omega::harness {
namespace {

constexpr std::size_t kNodes = 18;

/// The failover-forensics hierarchy (18 nodes, 6 regions, 3 zones), with
/// the causal plane on: sinks chain causes and the wire carries stamps.
scenario stamped_three_tier(std::uint64_t seed = 29) {
  scenario sc;
  sc.name = "causal-forensics";
  sc.nodes = kNodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(6, 3);
  sc.trace = true;
  sc.causal = true;
  sc.seed = seed;
  return sc;
}

std::optional<process_id> settle(experiment& exp, duration budget = sec(40)) {
  auto& sim = exp.simulator();
  if (sim.now() < time_origin + sec(5)) sim.run_until(time_origin + sec(5));
  const time_point deadline = sim.now() + budget;
  while (sim.now() < deadline) {
    if (auto agreed = exp.group().agreed_leader()) return agreed;
    sim.run_until(sim.now() + msec(100));
  }
  return exp.group().agreed_leader();
}

bool all_coordinators_agree(experiment& exp) {
  const auto agreed = exp.group().agreed_leader();
  if (!agreed.has_value()) return false;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    if (coord == nullptr) continue;
    if (coord->global_leader() != agreed) return false;
  }
  return true;
}

struct failover {
  node_id victim;
  time_point crash_at;
  time_point converged_at;
  process_id successor;
};

/// Converge the hierarchy, kill the global leader, run until every live
/// coordinator agrees on a live successor; the window is the ground truth.
failover kill_global_leader(experiment& exp) {
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  EXPECT_TRUE(global.has_value());
  {
    const time_point deadline = sim.now() + sec(30);
    while (sim.now() < deadline && !all_coordinators_agree(exp)) {
      sim.run_until(sim.now() + msec(100));
    }
    EXPECT_TRUE(all_coordinators_agree(exp));
  }
  failover f{node_id{global->value()}, sim.now(), sim.now(), process_id{}};
  exp.crash_node(f.victim);
  const time_point deadline = sim.now() + sec(60);
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(50));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *global &&
        all_coordinators_agree(exp)) {
      f.successor = *agreed;
      break;
    }
  }
  EXPECT_TRUE(f.successor.valid()) << "no converged successor within 60 s";
  f.converged_at = sim.now();
  return f;
}

TEST(CausalForensics, DagLinksGlobalLeaderFailover) {
  experiment exp(stamped_three_tier());
  const failover f = kill_global_leader(exp);

  const auto graph = exp.build_causal_graph();
  ASSERT_GT(graph.size(), 0u);
  const auto report = graph.linkage(f.victim, process_id{f.victim.value()},
                                    f.crash_at, f.converged_at);

  // The acceptance gate: >= 95% of the causally potent events in the
  // outage window descend from root-cause evidence about the victim.
  EXPECT_GT(report.considered, 0u);
  EXPECT_GE(report.evidence_roots, 1u);
  EXPECT_GE(report.fraction(), 0.95)
      << report.linked << "/" << report.considered << " linked, "
      << report.dangling << " dangling";

  // Chains must actually cross nodes — an accusation heard remotely links
  // back into the accuser's ring through the wire stamp.
  bool cross_node_edge = false;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const int parent = graph.cause_index(i);
    if (parent >= 0 && graph.event(i).node !=
                           graph.event(static_cast<std::size_t>(parent)).node) {
      cross_node_edge = true;
      break;
    }
  }
  EXPECT_TRUE(cross_node_edge);
}

TEST(CausalForensics, DagAttributionMatchesWindowedWithinFivePercent) {
  experiment exp(stamped_three_tier(31));
  const failover f = kill_global_leader(exp);
  const double outage_s = to_seconds(f.converged_at - f.crash_at);
  ASSERT_GT(outage_s, 0.0);

  const auto dag = exp.attribute_outage_dag(f.victim, f.crash_at,
                                            f.converged_at, f.successor);
  // The same merged trace with every cause id cleared: each event is a
  // root, nothing links, and the engagement boundary falls back to the
  // earliest engagement in the window.
  auto unstamped = exp.merged_trace();
  for (auto& ev : unstamped) ev.cause = cause_id{};
  const auto windowed = obs::causal_graph::build(unstamped).attribute_outage(
      f.victim, process_id{f.victim.value()}, f.crash_at, f.converged_at,
      f.successor);

  ASSERT_TRUE(dag.saw_detection);
  ASSERT_TRUE(dag.saw_engagement);
  ASSERT_TRUE(windowed.saw_engagement);
  EXPECT_GE(dag.attributed_fraction(), 0.95);
  EXPECT_NEAR(dag.window_s(), outage_s, 1e-9);

  // Same forensics, two reconstructions: each phase budget of the stamped
  // DAG agrees with the window rule within 5% of the outage.
  const double tol = outage_s * 0.05 + 1e-9;
  EXPECT_NEAR(dag.detection_s, windowed.detection_s, tol);
  EXPECT_NEAR(dag.dissemination_s, windowed.dissemination_s, tol);
  EXPECT_NEAR(dag.election_s, windowed.election_s, tol);
}

TEST(CausalForensics, StampingOffLeavesEveryEventARoot) {
  scenario sc = stamped_three_tier(37);
  sc.causal = false;
  experiment exp(sc);
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  const auto graph = exp.build_causal_graph();
  ASSERT_GT(graph.size(), 0u);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_EQ(graph.cause_index(i), -1);
    EXPECT_FALSE(graph.is_dangling(i));
  }
}

TEST(CausalForensics, ProfilerBucketsHostTimePerMessageKind) {
  scenario sc = stamped_three_tier(41);
  sc.profile_sim = true;
  experiment exp(sc);
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());

  // Heartbeats dominate any settled run; their handler histogram must have
  // samples and positive total host time.
  auto& h = exp.sim_registry().get_histogram("omega_sim_handler_seconds",
                                             {{"kind", "alive"}}, {});
  EXPECT_GT(h.count(), 100u);
  EXPECT_GT(h.sum(), 0.0);
}

/// One blocking GET against the experiment's endpoint.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(CausalForensics, HarnessServesMergedMetricsAndTraceOverHttp) {
  experiment exp(stamped_three_tier(43));
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  ASSERT_TRUE(exp.serve_http(0));
  ASSERT_GT(exp.http_port(), 0);
  exp.export_metrics();
  exp.publish_http();

  const std::string metrics = http_get(exp.http_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("omega_messages_sent_total"), std::string::npos);
  // The page is one merged exposition across all node registries plus the
  // harness registry: the body must re-parse.
  const auto body_at = metrics.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto samples = obs::parse_prometheus(metrics.substr(body_at + 4));
  ASSERT_TRUE(samples.has_value());
  EXPECT_FALSE(samples->empty());

  const std::string trace = http_get(exp.http_port(), "/trace");
  EXPECT_NE(trace.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"kind\""), std::string::npos);
}

}  // namespace
}  // namespace omega::harness
