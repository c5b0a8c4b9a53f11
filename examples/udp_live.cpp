// Live deployment example: the same service code over real UDP sockets,
// hosted on the shared scale-out runtime.
//
// The paper's implementation ran as a C daemon over UDP on a LAN. This
// example runs three unmodified service instances on localhost — all
// hosted on a two-loop `runtime::loop_pool`, each with its own batched
// `loop_udp_transport` socket (DESIGN.md §10) — elects a leader in real
// time, kills the leader's instance on its live loop, and watches the
// survivors re-elect within the FD detection bound.
//
// Each instance carries the full observability plane: a metrics registry,
// a trace ring with the causal plane on (wire-stamped cause ids + the
// monotonic wall clock), and — when OMEGA_LIVE_HTTP_PORT is set — a live
// /metrics + /trace HTTP endpoint that scripts/ci.sh scrapes mid-run. The
// /metrics page carries the runtime families (send-error classes, queue
// backpressure, per-loop syscall counters) next to the service counters.
// At the end the merged rings are rebuilt into a causal DAG on the wall
// timeline (the two loops share no engine clock), and the run fails unless
// >= 95% of the failover's events link back to root-cause evidence about
// the victim — the same forensics gate the sim harness enforces, on a
// real-UDP run.
//
// (Total wall-clock runtime: about 6 seconds, plus OMEGA_LIVE_LINGER_MS.)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "election/elector.hpp"
#include "obs/causal_graph.hpp"
#include "obs/exposition.hpp"
#include "obs/http_endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_export.hpp"
#include "obs/service_export.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"

using namespace omega;

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kLoops = 2;
const group_id kGroup{1};

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }

struct workstation {
  runtime::event_loop* loop = nullptr;  // shared; owned by the pool
  std::unique_ptr<runtime::loop_udp_transport> transport;
  std::unique_ptr<service::leader_election_service> svc;
  // Observability outlives the service (the sink is registered in its
  // config); rendered after shutdown.
  obs::registry metrics;
  obs::ring_recorder trace{256};
  obs::sink sink{&metrics, &trace};
};

// Renders every live workstation's registry and trace on its own loop
// thread (registries are loop-owned; reading them from main would race)
// and publishes the combined pages, appending the pool's per-loop syscall
// counters. Concatenated expositions repeat `# TYPE` headers; the parser
// and the endpoint contract both allow that.
void publish_snapshots(obs::http_endpoint& http,
                       std::vector<workstation>& cluster,
                       runtime::loop_pool& pool, obs::registry& pool_metrics) {
  std::string metrics_page;
  std::vector<obs::trace_event> merged;
  for (auto& ws : cluster) {
    if (!ws.svc) continue;
    std::string page;
    std::vector<obs::trace_event> events;
    ws.loop->sync([&ws, &page, &events] {
      obs::export_service_stats(ws.metrics, *ws.svc);
      obs::export_transport_stats(ws.metrics, *ws.transport);
      page = obs::render_prometheus(ws.metrics);
      events = ws.trace.events();
    });
    metrics_page += page;
    merged.insert(merged.end(), events.begin(), events.end());
  }
  for (std::size_t l = 0; l < pool.size(); ++l) {
    obs::export_loop_stats(pool_metrics, l, pool.at(l).stats_snapshot());
  }
  metrics_page += obs::render_prometheus(pool_metrics);
  std::sort(merged.begin(), merged.end(),
            [](const obs::trace_event& a, const obs::trace_event& b) {
              if (a.wall_us != b.wall_us) return a.wall_us < b.wall_us;
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  http.publish("/metrics", std::move(metrics_page),
               std::string(obs::http_endpoint::metrics_content_type));
  http.publish("/trace", obs::render_jsonl(merged),
               std::string(obs::http_endpoint::trace_content_type));
}

}  // namespace

int main() {
  // Fixed localhost ports; a production deployment reads these from its
  // cluster configuration, exactly like the paper's per-cluster install.
  runtime::udp_roster roster_map;
  std::vector<node_id> roster;
  for (std::size_t i = 0; i < kNodes; ++i) {
    roster.push_back(nid(i));
    roster_map[nid(i)] =
        runtime::udp_endpoint{"127.0.0.1", static_cast<std::uint16_t>(39400 + i)};
  }

  // Two shared epoll loops host all three instances (round-robin) — the
  // scale-out shape of bench/fig14_live at example size.
  runtime::loop_pool pool(kLoops);
  obs::registry pool_metrics;
  std::vector<workstation> cluster(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    workstation& ws = cluster[i];
    ws.loop = &pool.at(i);
    ws.transport = std::make_unique<runtime::loop_udp_transport>(
        *ws.loop, nid(i), roster_map);
    // Dual timestamps: every trace event carries the host's monotonic wall
    // clock, the only timeline the loops share.
    ws.sink.set_wall_clock(&runtime::monotonic_wall_us);
    ws.sink.set_self(nid(i));

    service::service_config cfg;
    cfg.self = nid(i);
    cfg.roster = roster;
    cfg.alg = election::algorithm::omega_l;
    cfg.sink = &ws.sink;
    // Causal plane on: causally potent datagrams carry their cause stamp.
    ws.sink.enable_causal(cfg.inc);

    // Service construction and all API calls must happen on the hosting
    // loop's thread (the protocol stack is single-threaded by design).
    ws.loop->sync([&ws, cfg, i] {
      ws.transport->set_sink(&ws.sink);  // trace unknown-peer drops too
      ws.svc = std::make_unique<service::leader_election_service>(
          *ws.loop, *ws.loop, *ws.transport, cfg);
      const process_id pid{static_cast<std::uint32_t>(i)};
      ws.svc->register_process(pid);
      service::join_options opts;
      opts.candidate = true;
      opts.qos.detection_time = msec(500);  // detect a dead leader in 0.5 s
      ws.svc->join_group(pid, kGroup, opts,
                         [i](group_id, std::optional<process_id> leader) {
                           std::cout << "  [node " << i << "] leader -> "
                                     << (leader
                                             ? std::to_string(leader->value())
                                             : std::string("(none)"))
                                     << std::endl;
                         });
    });
  }

  // Live telemetry endpoint (opt-in): OMEGA_LIVE_HTTP_PORT=0 binds an
  // ephemeral port and prints it, any other value binds that port.
  obs::http_endpoint http;
  if (const char* port_env = std::getenv("OMEGA_LIVE_HTTP_PORT")) {
    if (!http.start(static_cast<std::uint16_t>(std::atoi(port_env)))) {
      std::cerr << "failed to bind OMEGA_LIVE_HTTP_PORT=" << port_env << "\n";
      return 1;
    }
    std::cout << "-- serving /metrics and /trace on 127.0.0.1:" << http.port()
              << std::endl;
  }

  std::cout << "-- 3 service instances up on 127.0.0.1:39400-39402 ("
            << kLoops << " shared loops); waiting 3 s of real time\n";
  std::this_thread::sleep_for(std::chrono::seconds(3));

  std::optional<process_id> leader;
  cluster[0].loop->sync([&] { leader = cluster[0].svc->leader(kGroup); });
  if (!leader) {
    std::cerr << "no leader elected\n";
    return 1;
  }
  std::cout << "-- elected leader: process " << leader->value() << "\n";
  if (http.running()) publish_snapshots(http, cluster, pool, pool_metrics);

  const std::size_t victim = leader->value();
  std::cout << "-- killing node " << victim << "'s service instance\n";
  const std::int64_t kill_wall_us = runtime::monotonic_wall_us();
  // Destroy service and socket on the victim's own loop thread; the loop
  // itself keeps running — it is shared infrastructure, and tearing one
  // tenant down mid-traffic is exactly what the runtime must survive.
  cluster[victim].loop->sync([&] {
    cluster[victim].svc.reset();
    cluster[victim].transport.reset();
  });

  // Poll for re-election instead of sleeping a fixed window: the heal
  // instant bounds the causal-linkage window below, and a tight window
  // keeps unrelated post-election events (a transient false suspicion of a
  // live peer) out of the forensics denominator.
  bool healed = false;
  std::optional<process_id> new_leader;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!healed && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    healed = true;
    new_leader = std::nullopt;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == victim) continue;
      std::optional<process_id> now_leader;
      cluster[i].loop->sync(
          [&, i] { now_leader = cluster[i].svc->leader(kGroup); });
      if (!now_leader || now_leader->value() == victim ||
          (new_leader && *new_leader != *now_leader)) {
        healed = false;
        break;
      }
      new_leader = now_leader;
    }
  }
  const std::int64_t heal_wall_us = runtime::monotonic_wall_us();
  std::cout << "-- survivors agree on leader: "
            << (new_leader ? std::to_string(new_leader->value())
                           : std::string("(none)"))
            << (healed ? "" : "  [TIMED OUT]") << "\n";
  if (http.running()) {
    publish_snapshots(http, cluster, pool, pool_metrics);
    // Give out-of-process scrapers (scripts/ci.sh) a deterministic window
    // to hit the post-failover snapshots before shutdown.
    if (const char* linger = std::getenv("OMEGA_LIVE_LINGER_MS")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(std::atoi(linger)));
    }
  }

  // Orderly shutdown: services die on their loop threads first. Each
  // survivor exports its counters on its own loop before dying (the same
  // render a /metrics scrape would trigger), then the pool stops.
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == victim) continue;
    cluster[i].loop->sync([&, i] {
      obs::export_service_stats(cluster[i].metrics, *cluster[i].svc);
      obs::export_transport_stats(cluster[i].metrics, *cluster[i].transport);
      cluster[i].svc.reset();
      cluster[i].transport.reset();
    });
  }
  for (std::size_t l = 0; l < pool.size(); ++l) {
    obs::export_loop_stats(pool_metrics, l, pool.at(l).stats_snapshot());
  }
  pool.stop_all();
  http.stop();

  // One survivor's observability, post-mortem: the Prometheus exposition
  // (service + transport families), the pool's runtime counters, and the
  // tail of the structured trace.
  const std::size_t witness = victim == 0 ? 1 : 0;
  std::cout << "\n-- node " << witness << " /metrics snapshot:\n"
            << obs::render_prometheus(cluster[witness].metrics);
  std::cout << "\n-- loop pool runtime counters:\n"
            << obs::render_prometheus(pool_metrics);
  auto events = cluster[witness].trace.events();
  const std::size_t tail = events.size() > 8 ? events.size() - 8 : 0;
  std::cout << "\n-- node " << witness << " trace (last "
            << (events.size() - tail) << " of " << events.size()
            << " events, JSONL):\n"
            << obs::render_jsonl(
                   std::span<const obs::trace_event>(events).subspan(tail));

  // Causal forensics on the wall timeline: all loops are stopped, so the
  // rings are safe to merge from here. The loops never shared a virtual
  // clock — the DAG is rebuilt purely from cause ids, windowed by the
  // monotonic wall clock.
  std::vector<obs::trace_event> all_events;
  for (auto& ws : cluster) {
    const auto evs = ws.trace.events();
    all_events.insert(all_events.end(), evs.begin(), evs.end());
  }
  const auto graph = obs::causal_graph::build(all_events);
  const node_id victim_node = nid(victim);
  const process_id victim_pid{static_cast<std::uint32_t>(victim)};
  const auto report = graph.linkage(
      victim_node, victim_pid, time_point{usec(kill_wall_us)},
      time_point{usec(heal_wall_us)}, obs::causal_graph::timeline::wall);
  std::cout << "\n-- causal DAG over " << graph.size() << " events: "
            << report.linked << "/" << report.considered
            << " failover events linked to victim evidence ("
            << report.evidence_roots << " roots, " << report.dangling
            << " dangling), wall-skew violations: "
            << graph.wall_skew_violations() << "\n";
  const auto budget = graph.attribute_outage(
      victim_node, victim_pid, time_point{usec(kill_wall_us)},
      time_point{usec(heal_wall_us)}, new_leader,
      obs::causal_graph::timeline::wall);
  std::cout << "-- outage attribution: detect " << budget.detection_s
            << " s, disseminate " << budget.dissemination_s << " s, elect "
            << budget.election_s << " s\n";

  const bool linked_enough =
      report.considered > 0 && report.fraction() >= 0.95;
  if (!linked_enough) std::cout << "-- FAILED causal linkage gate (>= 95%)\n";
  const bool skew_ok = graph.wall_skew_violations() == 0;
  if (!skew_ok) std::cout << "-- FAILED wall-clock skew check\n";

  std::cout << (healed ? "-- re-election over real UDP succeeded\n"
                       : "-- FAILED to re-elect\n");
  return healed && linked_enough && skew_ok ? 0 : 1;
}
