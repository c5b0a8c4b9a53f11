// Figure 12 (extension, not in the paper) — roster-scoped vs cluster-wide
// membership dissemination on deep hierarchies.
//
// fig11 showed the two-tier hierarchy collapses ALIVE fan-out from O(n^2)
// to ~O(n); after that, the cluster-wide HELLO anti-entropy broadcast is
// the dominant per-node cost: every node still gossips membership to all n
// peers every HELLO interval (2 s), though it shares groups with only a
// handful of them. `membership::hello_fanout::roster` scopes each HELLO
// (and LEAVE) to the per-group rosters — candidates to the whole group
// roster, listeners to the candidate hosts — with a round-robin discovery
// probe healing lost joins.
//
// This figure sweeps a 3-tier shape (regions of 10 -> zones -> global) at
// 120/300/500 nodes and measures, per cell:
//   cluster3 — 3-tier hierarchy, cluster-wide HELLO (pre-scoping baseline),
//   scoped3  — 3-tier hierarchy, roster-scoped HELLO,
//   two_tier — 2-tier hierarchy, roster-scoped (re-election baseline: the
//              acceptance gate wants 3-tier failover within 25% of it).
// Total messages/s and HELLO messages/s on the wire (the latter split out
// with a `sim_network` send tap + `proto::peek_kind`), bytes/s, realized
// ALIVE/node/s, global re-election time after crashing the agreed global
// leader, mean per-region availability, and the cross-tier blame split of
// global outages. Machine readable: BENCH_roster.json (OMEGA_BENCH_JSON).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "obs/forensics.hpp"
#include "proto/wire.hpp"

using namespace omega;

namespace {

constexpr std::size_t kRegionSize = 10;

/// Same interactive QoS as fig11 on every tier: 1 s detection bound, one
/// mistake per 2 h, 99.99% query accuracy.
fd::qos_spec bench_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

enum class policy { cluster3, scoped3, two_tier };

const char* policy_label(policy p) {
  switch (p) {
    case policy::cluster3: return "cluster3";
    case policy::scoped3: return "scoped3";
    case policy::two_tier: return "two-tier";
  }
  return "?";
}

harness::scenario make_scenario(std::size_t nodes, policy p) {
  harness::scenario sc;
  sc.name = "fig12-" + std::string(policy_label(p)) + "-" + std::to_string(nodes);
  sc.nodes = nodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.qos = bench_qos();
  sc.churn = harness::churn_profile::none();  // failovers are driven manually
  const std::size_t regions = (nodes + kRegionSize - 1) / kRegionSize;
  if (p == policy::two_tier) {
    sc.hierarchy = harness::hierarchy_profile::with_regions(regions);
  } else {
    const std::size_t zones = std::max<std::size_t>(1, regions / 5);
    sc.hierarchy = harness::hierarchy_profile::three_tier(regions, zones);
  }
  sc.hierarchy.scoped_hello = (p != policy::cluster3);
  sc.hierarchy.global_qos = bench_qos();
  // Trace every node so the failover phase can attribute each re-election's
  // latency budget (detection / dissemination / election) from the merged
  // event stream. Virtual-time traffic is unaffected — the CI overhead gate
  // (scripts/ci.sh) checks msgs/s against the pre-instrumentation baseline.
  sc.trace = true;
  // Causal stamping on: the overhead gate measures the worst case — every
  // causally potent datagram carries the 16-byte version-2 cause stamp.
  // msgs/s must still stay within 3% of the pre-instrumentation baseline.
  sc.causal = true;
  sc.warmup = sec(30);
  sc.seed = omega::bench::bench_seed() * 1000003u + nodes;  // same per roster
  return sc;
}

struct cell_result {
  double messages_per_s = 0.0;        // all datagrams on the wire, cluster total
  double hello_messages_per_s = 0.0;  // HELLO datagrams only (send tap)
  double bytes_per_s = 0.0;
  double alive_per_node_per_s = 0.0;
  double reelection_mean_s = 0.0;  // crash -> cluster-wide new global leader
  std::size_t reelection_samples = 0;
  double region_availability_mean = 0.0;
  std::uint64_t blamed_regional = 0;
  std::uint64_t blamed_global = 0;
  /// Forensic latency budget of the measured re-elections (means over the
  /// attributed outages): how much of each interval was failure detection,
  /// suspicion dissemination, and election convergence.
  obs::forensics_summary budget;
  /// Real time spent simulating the whole cell (settle + traffic window +
  /// failovers) and the events it took — the simulator-cost numbers the
  /// ci.sh wall-clock regression gate tracks.
  double wall_clock_s = 0.0;
  std::uint64_t events_executed = 0;
};

struct failover_sample {
  double recovery_s = -1.0;  // crash -> agreement on a live successor
  std::optional<obs::outage_budget> budget;
};

/// Crashes the node hosting the current agreed (global) leader, measures
/// the time until every live node agrees on a different live leader, and
/// attributes that interval from the merged trace.
failover_sample measure_failover(harness::experiment& exp) {
  auto& sim = exp.simulator();
  failover_sample sample;
  std::optional<process_id> leader = exp.group().agreed_leader();
  const time_point deadline = sim.now() + sec(30);
  while (!leader.has_value() && sim.now() < deadline) {
    sim.run_until(sim.now() + msec(100));
    leader = exp.group().agreed_leader();
  }
  if (!leader.has_value()) return sample;  // never settled: report as failure

  const node_id victim{leader->value()};  // harness runs pid i on node i
  const time_point crash_at = sim.now();
  exp.crash_node(victim);
  std::optional<process_id> successor;
  while (sim.now() < crash_at + sec(30)) {
    sim.run_until(sim.now() + msec(25));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *leader) {
      successor = agreed;
      break;
    }
  }
  if (successor.has_value()) {
    const time_point converged_at = sim.now();
    sample.recovery_s = to_seconds(converged_at - crash_at);
    sample.budget =
        exp.attribute_outage_dag(victim, crash_at, converged_at, successor);
  }
  exp.recover_node(victim);
  sim.run_until(sim.now() + sec(10));  // let it rejoin cleanly
  return sample;
}

cell_result run_cell(const harness::scenario& sc, double window_s,
                     std::size_t failovers) {
  omega::bench::wall_timer wall;
  harness::experiment exp(sc);
  auto& sim = exp.simulator();

  // Settle: warm-up plus a short agreement window.
  sim.run_until(time_origin + sc.warmup + sec(10));

  // HELLO share of the wire, via the envelope peek (no full decode).
  std::uint64_t hello_dgrams = 0;
  exp.network().set_send_tap(
      [&hello_dgrams](node_id, node_id, std::span<const std::byte> payload) {
        if (proto::peek_kind(payload) == proto::msg_kind::hello) ++hello_dgrams;
      });

  exp.network().reset_traffic();
  exp.group().begin(sim.now());
  exp.hier_metrics()->begin(sim.now());
  const std::uint64_t alive_base = exp.total_alive_sent();
  const time_point window_from = sim.now();
  sim.run_until(window_from + from_seconds(window_s));

  cell_result res;
  const double span_s = to_seconds(sim.now() - window_from);
  const auto wire = omega::bench::measure_wire_rate(exp, sc.nodes, span_s);
  res.messages_per_s = wire.messages_per_s;
  res.hello_messages_per_s = static_cast<double>(hello_dgrams) / span_s;
  res.bytes_per_s = wire.bytes_per_s;
  res.alive_per_node_per_s =
      static_cast<double>(exp.total_alive_sent() - alive_base) /
      (span_s * static_cast<double>(sc.nodes));

  // Failover phase: global detection + re-election time, blame split and
  // forensic per-phase latency budget.
  double sum = 0.0;
  for (std::size_t k = 0; k < failovers; ++k) {
    const failover_sample s = measure_failover(exp);
    if (s.recovery_s < 0.0) continue;
    sum += s.recovery_s;
    ++res.reelection_samples;
    if (s.budget.has_value()) res.budget.add(*s.budget);
  }
  res.reelection_mean_s =
      res.reelection_samples > 0
          ? sum / static_cast<double>(res.reelection_samples)
          : -1.0;

  exp.group().finish(sim.now());
  exp.hier_metrics()->finish(sim.now());
  const auto* hm = exp.hier_metrics();
  double availability_sum = 0.0;
  for (std::size_t r = 0; r < hm->regions(); ++r) {
    availability_sum += hm->region(r).leader_availability();
  }
  res.region_availability_mean =
      availability_sum / static_cast<double>(hm->regions());
  res.blamed_regional = hm->outages_blamed_regional();
  res.blamed_global = hm->outages_blamed_global();
  res.wall_clock_s = wall.seconds();
  res.events_executed = sim.events_executed();
  return res;
}

std::string json_cell(const cell_result& r) {
  std::string s = "{";
  s += "\"messages_per_s\": " + harness::fmt_double(r.messages_per_s, 1);
  s += ", \"hello_messages_per_s\": " +
       harness::fmt_double(r.hello_messages_per_s, 1);
  s += ", \"bytes_per_s\": " + harness::fmt_double(r.bytes_per_s, 1);
  s += ", \"alive_per_node_per_s\": " +
       harness::fmt_double(r.alive_per_node_per_s, 3);
  s += ", \"reelection_mean_s\": " + harness::fmt_double(r.reelection_mean_s, 3);
  s += ", \"reelection_samples\": " + std::to_string(r.reelection_samples);
  s += ", \"region_availability_mean\": " +
       harness::fmt_double(r.region_availability_mean, 5);
  s += ", \"outages_blamed_regional\": " + std::to_string(r.blamed_regional);
  s += ", \"outages_blamed_global\": " + std::to_string(r.blamed_global);
  s += ", \"wall_clock_s\": " + harness::fmt_double(r.wall_clock_s, 3);
  s += ", \"events_executed\": " + std::to_string(r.events_executed);
  const auto mean_or = [](const running_stats& st, double fallback) {
    return st.empty() ? fallback : st.mean();
  };
  s += ", \"latency_budget\": {\"detection_mean_s\": " +
       harness::fmt_double(mean_or(r.budget.detection, -1.0), 3) +
       ", \"dissemination_mean_s\": " +
       harness::fmt_double(mean_or(r.budget.dissemination, -1.0), 3) +
       ", \"election_mean_s\": " +
       harness::fmt_double(mean_or(r.budget.election, -1.0), 3) +
       ", \"attributed_fraction_mean\": " +
       harness::fmt_double(mean_or(r.budget.fraction, 0.0), 4) + "}";
  s += "}";
  return s;
}

}  // namespace

int main() {
  const double hours = omega::bench::bench_hours();
  // Membership-dissemination economics are stationary: a few minutes of
  // simulated wire suffice per cell, even where the paper ran days.
  const double window_s = std::clamp(hours * 120.0, 45.0, 180.0);
  // OMEGA_BENCH_ROSTERS ("120,300,500" default) restricts the roster sweep:
  // profiling runs and the CI wall-clock gate only need one size each.
  std::vector<std::size_t> rosters = {120, 300, 500};
  if (const char* env = std::getenv("OMEGA_BENCH_ROSTERS"); env && *env) {
    rosters.clear();
    std::size_t value = 0;
    for (const char* c = env;; ++c) {
      if (*c >= '0' && *c <= '9') {
        value = value * 10 + static_cast<std::size_t>(*c - '0');
      } else {
        if (value > 0) rosters.push_back(value);
        value = 0;
        if (*c == '\0') break;
      }
    }
  }

  harness::table t(
      "Figure 12: roster-scoped vs cluster-wide HELLO dissemination, 3-tier "
      "hierarchy (regions of 10)");
  t.headers({"roster", "policy", "msgs/s", "HELLO/s", "KB/s", "ALIVE/node/s",
             "re-election (s)", "det/diss/elect (s)", "region avail",
             "blame reg/glob", "wall (s)"});

  std::string rows_json;
  bool scoped_fewer_at_300 = false;
  bool scoped_fewer_at_500 = false;
  bool scoped_2x_at_500 = false;
  bool reelection_within_25pct_at_500 = false;
  for (const std::size_t nodes : rosters) {
    const std::size_t failovers = nodes >= 300 ? 2 : 3;
    const auto timed_cell = [&](policy p) {
      std::cerr << "fig12: running " << nodes << "/" << policy_label(p)
                << "...\n";
      return run_cell(make_scenario(nodes, p), window_s, failovers);
    };
    const auto cluster3 = timed_cell(policy::cluster3);
    const auto scoped3 = timed_cell(policy::scoped3);
    const auto two_tier = timed_cell(policy::two_tier);
    const auto row = [&](policy p, const cell_result& r) {
      const std::string split =
          r.budget.fraction.empty()
              ? "-"
              : harness::fmt_double(r.budget.detection.mean(), 2) + "/" +
                    harness::fmt_double(r.budget.dissemination.mean(), 2) +
                    "/" + harness::fmt_double(r.budget.election.mean(), 2);
      t.row({std::to_string(nodes), policy_label(p),
             harness::fmt_double(r.messages_per_s, 0),
             harness::fmt_double(r.hello_messages_per_s, 0),
             harness::fmt_double(r.bytes_per_s / 1024.0, 1),
             harness::fmt_double(r.alive_per_node_per_s, 2),
             harness::fmt_double(r.reelection_mean_s, 2), split,
             harness::fmt_double(r.region_availability_mean, 4),
             std::to_string(r.blamed_regional) + "/" +
                 std::to_string(r.blamed_global),
             harness::fmt_double(r.wall_clock_s, 1)});
    };
    row(policy::cluster3, cluster3);
    row(policy::scoped3, scoped3);
    row(policy::two_tier, two_tier);
    if (nodes == 300) {
      scoped_fewer_at_300 = scoped3.messages_per_s < cluster3.messages_per_s;
    }
    if (nodes == 500) {
      scoped_fewer_at_500 = scoped3.messages_per_s < cluster3.messages_per_s;
      scoped_2x_at_500 =
          scoped3.messages_per_s * 2.0 <= cluster3.messages_per_s;
      reelection_within_25pct_at_500 =
          scoped3.reelection_mean_s > 0.0 && two_tier.reelection_mean_s > 0.0 &&
          scoped3.reelection_mean_s <= 1.25 * two_tier.reelection_mean_s;
    }
    if (!rows_json.empty()) rows_json += ",\n    ";
    rows_json += "{\"nodes\": " + std::to_string(nodes) +
                 ", \"cluster3\": " + json_cell(cluster3) +
                 ", \"scoped3\": " + json_cell(scoped3) +
                 ", \"two_tier\": " + json_cell(two_tier) + "}";
  }
  t.print(std::cout);
  std::cout << "Expected shape: scoped dissemination sends each node's HELLO\n"
               "to its group rosters (candidates) or candidate hosts\n"
               "(listeners) instead of all n peers, so HELLO traffic stops\n"
               "growing with the cluster and total msgs/s drops several-fold\n"
               "at 300+ nodes, at unchanged failover behaviour.\n"
            << "scoped_fewer_msgs_at_300=" << (scoped_fewer_at_300 ? "yes" : "no")
            << " scoped_2x_fewer_msgs_at_500=" << (scoped_2x_at_500 ? "yes" : "no")
            << " reelection_within_25pct_of_two_tier_at_500="
            << (reelection_within_25pct_at_500 ? "yes" : "no") << "\n";

  const char* out_path = std::getenv("OMEGA_BENCH_JSON");
  std::ofstream out(out_path && *out_path ? out_path : "BENCH_roster.json");
  out << "{\n  \"figure\": \"fig12_roster_scope\",\n  \"region_size\": "
      << kRegionSize << ",\n  \"window_s\": " << harness::fmt_double(window_s, 1)
      << ",\n  \"rosters\": [\n    " << rows_json
      << "\n  ],\n  \"scoped_fewer_msgs_at_300\": "
      << (scoped_fewer_at_300 ? "true" : "false")
      << ",\n  \"scoped_fewer_msgs_at_500\": "
      << (scoped_fewer_at_500 ? "true" : "false")
      << ",\n  \"scoped_2x_fewer_msgs_at_500\": "
      << (scoped_2x_at_500 ? "true" : "false")
      << ",\n  \"reelection_within_25pct_of_two_tier_at_500\": "
      << (reelection_within_25pct_at_500 ? "true" : "false") << "\n}\n";
  return 0;
}
