// Figure 11 (extension, not in the paper) — flat vs hierarchical election
// on large rosters.
//
// The paper's §7 names hierarchical election as the way to large dynamic
// systems: keep each election among a small candidate set, let regional
// leaders compete one tier up. This figure measures what src/hierarchy/
// buys over flat omega_lc at *equal per-node ALIVE rate* (both cells run
// the same FD QoS on every tier, and the service multiplexes all groups
// over one heartbeat stream, so a node's cadence is identical — only the
// fan-out differs):
//
//   flat — one group, every node a candidate, omega_lc: every node
//          broadcasts to every other, O(n^2) ALIVEs per interval, and the
//          per-link adaptation plane tracks ~n refinements per node.
//   hier — regions of 10 under one global group (hierarchy_coordinator):
//          region ALIVEs fan out to ~9 peers, listeners never send in the
//          global tier (omega_l), and each node tracks only its region
//          peers plus the global senders.
//
// Swept over 30/60/120-node rosters. Measured per cell: total messages/s
// and bytes/s on the wire, realized ALIVE/node/s, per-remote `param_plan`
// refinement entries per node (the per-link override memory the ROADMAP
// asked to size), and the global detection + re-election time after
// crashing the current (global) leader — for the hierarchy that includes
// the regional failover and the promotion of a replacement. Machine
// readable output: BENCH_hierarchy.json (override: OMEGA_BENCH_JSON).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"

using namespace omega;

namespace {

constexpr std::size_t kRegionSize = 10;

/// Same interactive QoS as fig9/fig10: 1 s detection bound, one mistake
/// per 2 h, 99.99% query accuracy — on both tiers, so the per-node
/// heartbeat cadence of the two policies is identical by construction.
fd::qos_spec bench_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

harness::scenario make_scenario(std::size_t nodes, bool hier) {
  harness::scenario sc;
  sc.name = (hier ? "fig11-hier-" : "fig11-flat-") + std::to_string(nodes);
  sc.nodes = nodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.qos = bench_qos();
  sc.churn = harness::churn_profile::none();  // failovers are driven manually
  sc.adaptive.mode = adaptive::tuning_mode::adaptive;
  sc.adaptive.per_link = true;
  if (hier) {
    sc.hierarchy = harness::hierarchy_profile::with_regions(
        (nodes + kRegionSize - 1) / kRegionSize);
    sc.hierarchy.global_qos = bench_qos();
  }
  sc.seed = omega::bench::bench_seed() * 1000003u + nodes;  // same per roster
  return sc;
}

struct cell_result {
  double messages_per_s = 0.0;  // all datagrams on the wire, cluster total
  double bytes_per_s = 0.0;
  double alive_per_node_per_s = 0.0;
  double plan_entries_per_node = 0.0;  // per-remote param_plan refinements
  double reelection_mean_s = 0.0;      // crash -> cluster-wide new leader
  std::size_t reelection_samples = 0;
  std::uint64_t promotions = 0;  // hierarchy only
  std::uint64_t demotions = 0;   // hierarchy only
  double wall_clock_s = 0.0;
  std::uint64_t events_executed = 0;
};

cell_result run_cell(const harness::scenario& sc, double window_s,
                     std::size_t failovers) {
  omega::bench::wall_timer wall;
  harness::experiment exp(sc);
  auto& sim = exp.simulator();

  // Settle: warm-up plus one estimator-confidence + retuner-dwell window.
  sim.run_until(time_origin + sc.warmup + sec(60));

  // Traffic window (no failures): fan-out and plan-memory economics.
  exp.network().reset_traffic();
  const std::uint64_t alive_base = exp.total_alive_sent();
  const time_point window_from = sim.now();
  const time_point window_end = window_from + from_seconds(window_s);
  double plan_sum = 0.0;
  std::size_t plan_samples = 0;
  while (sim.now() < window_end) {
    sim.run_until(std::min(window_end, sim.now() + from_seconds(window_s / 5)));
    std::size_t entries = 0;
    for (std::size_t n = 0; n < sc.nodes; ++n) {
      if (auto* svc = exp.node_service(node_id{static_cast<std::uint32_t>(n)})) {
        entries += svc->failure_detector().plan_refinement_count();
      }
    }
    plan_sum += static_cast<double>(entries) / static_cast<double>(sc.nodes);
    ++plan_samples;
  }

  cell_result res;
  const double span_s = to_seconds(sim.now() - window_from);
  const auto wire = omega::bench::measure_wire_rate(exp, sc.nodes, span_s);
  res.messages_per_s = wire.messages_per_s;
  res.bytes_per_s = wire.bytes_per_s;
  res.alive_per_node_per_s =
      static_cast<double>(exp.total_alive_sent() - alive_base) /
      (span_s * static_cast<double>(sc.nodes));
  res.plan_entries_per_node =
      plan_samples > 0 ? plan_sum / static_cast<double>(plan_samples) : 0.0;

  // Failover phase: global detection + re-election time.
  const auto series = omega::bench::measure_failovers(exp, failovers);
  res.reelection_mean_s = series.mean_s;
  res.reelection_samples = series.samples;

  for (std::size_t n = 0; n < sc.nodes; ++n) {
    if (auto* c = exp.node_coordinator(node_id{static_cast<std::uint32_t>(n)})) {
      res.promotions += c->promotions();
      res.demotions += c->demotions();
    }
  }
  res.wall_clock_s = wall.seconds();
  res.events_executed = sim.events_executed();
  return res;
}

std::string json_cell(const cell_result& r) {
  std::string s = "{";
  s += "\"messages_per_s\": " + harness::fmt_double(r.messages_per_s, 1);
  s += ", \"bytes_per_s\": " + harness::fmt_double(r.bytes_per_s, 1);
  s += ", \"alive_per_node_per_s\": " +
       harness::fmt_double(r.alive_per_node_per_s, 3);
  s += ", \"plan_entries_per_node\": " +
       harness::fmt_double(r.plan_entries_per_node, 2);
  s += ", \"reelection_mean_s\": " + harness::fmt_double(r.reelection_mean_s, 3);
  s += ", \"reelection_samples\": " + std::to_string(r.reelection_samples);
  s += ", \"wall_clock_s\": " + harness::fmt_double(r.wall_clock_s, 3);
  s += ", \"events_executed\": " + std::to_string(r.events_executed);
  s += ", \"promotions\": " + std::to_string(r.promotions);
  s += ", \"demotions\": " + std::to_string(r.demotions);
  s += "}";
  return s;
}

}  // namespace

int main() {
  const double hours = omega::bench::bench_hours();
  // The window needs to cover estimator confidence + retuner dwell but not
  // the paper's multi-hour runs: fan-out economics are stationary.
  const double window_s = std::clamp(hours * 300.0, 60.0, 600.0);
  const std::size_t failovers = 3;
  const std::size_t rosters[] = {30, 60, 120};

  harness::table t(
      "Figure 11: flat omega_lc vs hierarchical (regions of 10) at equal "
      "per-node ALIVE rate");
  t.headers({"roster", "policy", "msgs/s", "KB/s", "ALIVE/node/s",
             "plan entries/node", "re-election (s)"});

  std::string rows_json;
  bool fewer_messages_at_120 = false;
  bool fewer_plan_entries_at_120 = false;
  for (const std::size_t nodes : rosters) {
    const auto flat = run_cell(make_scenario(nodes, false), window_s, failovers);
    const auto hier = run_cell(make_scenario(nodes, true), window_s, failovers);
    const auto row = [&](const char* label, const cell_result& r) {
      t.row({std::to_string(nodes), label,
             harness::fmt_double(r.messages_per_s, 0),
             harness::fmt_double(r.bytes_per_s / 1024.0, 1),
             harness::fmt_double(r.alive_per_node_per_s, 2),
             harness::fmt_double(r.plan_entries_per_node, 1),
             harness::fmt_double(r.reelection_mean_s, 2)});
    };
    row("flat", flat);
    row("hier", hier);
    if (nodes == 120) {
      fewer_messages_at_120 = hier.messages_per_s < flat.messages_per_s;
      fewer_plan_entries_at_120 =
          hier.plan_entries_per_node < flat.plan_entries_per_node;
    }
    if (!rows_json.empty()) rows_json += ",\n    ";
    rows_json += "{\"nodes\": " + std::to_string(nodes) +
                 ", \"flat\": " + json_cell(flat) +
                 ", \"hier\": " + json_cell(hier) + "}";
  }
  t.print(std::cout);
  std::cout << "Expected shape: the hierarchy keeps ALIVE fan-out inside\n"
               "regions (plus the global tier's few senders), so total\n"
               "messages/s and per-remote plan entries grow ~linearly with\n"
               "the roster instead of quadratically, at the same per-node\n"
               "heartbeat rate.\n"
            << "hier_fewer_messages_at_120="
            << (fewer_messages_at_120 ? "yes" : "no")
            << " hier_fewer_plan_entries_at_120="
            << (fewer_plan_entries_at_120 ? "yes" : "no") << "\n";

  const char* out_path = std::getenv("OMEGA_BENCH_JSON");
  std::ofstream out(out_path && *out_path ? out_path : "BENCH_hierarchy.json");
  out << "{\n  \"figure\": \"fig11_hierarchy\",\n  \"region_size\": "
      << kRegionSize << ",\n  \"window_s\": " << harness::fmt_double(window_s, 1)
      << ",\n  \"rosters\": [\n    " << rows_json
      << "\n  ],\n  \"hier_fewer_messages_at_120\": "
      << (fewer_messages_at_120 ? "true" : "false")
      << ",\n  \"hier_fewer_plan_entries_at_120\": "
      << (fewer_plan_entries_at_120 ? "true" : "false") << "\n}\n";
  return 0;
}
