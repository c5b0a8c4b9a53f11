#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "obs/exposition.hpp"
#include "obs/service_export.hpp"

namespace omega::harness {

experiment::experiment(scenario sc) : sc_(std::move(sc)), root_rng_(sc_.seed) {
  if (sc_.nodes == 0) throw std::invalid_argument("experiment: zero nodes");
  // A demotion completing within ~2 detection bounds of the demoted
  // process's real crash is attributable to that crash, even if the
  // process recovered in between (see the group_metrics header).
  metrics_.set_justification_window(sc_.qos.detection_time * 2);
  net_ = std::make_unique<net::sim_network>(sim_, sc_.nodes, sc_.links,
                                            root_rng_.split());
  // Mixed topology: every directed link touching one of the last
  // `wan_nodes` workstations runs the WAN profile.
  if (sc_.wan_nodes > 0 && sc_.wan_nodes < sc_.nodes) {
    const std::size_t first_wan = sc_.nodes - sc_.wan_nodes;
    for (std::size_t i = 0; i < sc_.nodes; ++i) {
      for (std::size_t j = 0; j < sc_.nodes; ++j) {
        if (i == j || (i < first_wan && j < first_wan)) continue;
        net_->set_link_profile(node_id{static_cast<std::uint32_t>(i)},
                               node_id{static_cast<std::uint32_t>(j)},
                               sc_.wan_links);
      }
    }
  }
  // Hierarchy: derive the region layout.
  if (!sc_.hierarchy.tiers.empty()) {
    topo_.emplace(hierarchy::topology(sc_.nodes, sc_.hierarchy.tiers));
    hier_metrics_ = std::make_unique<metrics::hierarchy_metrics>(
        topo_->groups_in_tier(0), [this](process_id pid) {
          // The harness runs pid i on node i.
          return topo_->region_of(node_id{pid.value()});
        });
    hier_metrics_->set_justification_window(sc_.qos.detection_time * 2);
    metrics_.set_agreement_observer(
        [this](time_point now, std::optional<process_id> agreed) {
          hier_metrics_->on_global_agreement(now, agreed);
        });
  }

  if (sc_.link_crashes.enabled) net_->enable_link_crashes(sc_.link_crashes);

  // Dynamic link profile: schedule every phase change up front.
  for (const link_phase& phase : sc_.link_phases) {
    sim_.schedule_at(time_origin + phase.at, [this, profile = phase.links] {
      net_->set_all_link_profiles(profile);
    });
  }

  if (sc_.trace) {
    obs_.reserve(sc_.nodes);
    for (std::size_t i = 0; i < sc_.nodes; ++i) {
      obs_.push_back(std::make_unique<node_obs>(sc_.trace_capacity));
    }
  }
  if (sc_.profile_sim) {
    profiler_ = std::make_unique<obs::profiler>(&sim_metrics_);
    net_->set_profiler(profiler_.get());
  }

  nodes_.reserve(sc_.nodes);
  rng stagger = root_rng_.split();
  for (std::size_t i = 0; i < sc_.nodes; ++i) {
    workstation ws;
    ws.node = node_id{static_cast<std::uint32_t>(i)};
    ws.pid = process_id{static_cast<std::uint32_t>(i)};
    ws.churn = sc_.churn;
    ws.churn_rng = root_rng_.split();
    nodes_.push_back(std::move(ws));
  }
  // Stagger the initial joins over two seconds so the cluster does not
  // behave as if a perfectly synchronized script started it (it never does
  // on a real testbed either).
  for (auto& ws : nodes_) {
    const time_point join_at = time_origin + stagger.exponential(msec(500));
    boot_node(ws, join_at);
  }

  // Adversarial fault script (DESIGN.md §11). The adversary's stream is the
  // *last* split off the root: base streams (network, stagger, churn) keep
  // the exact draw sequence of a script-free run, and a run with an empty
  // script takes no split at all — byte-identical to the pre-adversary
  // harness, as the golden-trace guard checks.
  if (!sc_.fault_script.empty()) {
    for (const fault_step& step : sc_.fault_script) {
      if (const auto* skew = std::get_if<fault_skew>(&step.action)) {
        // Pre-create the wrapper (zero skew = pass-through) so the service
        // can be bound to it before the fault fires; services start only
        // once the simulator runs.
        auto& ws = nodes_.at(skew->node.value());
        if (!ws.clock) {
          ws.clock = std::make_unique<skewed_clock>(sim_);
          ws.timers = std::make_unique<skewed_timer_service>(sim_, *ws.clock);
        }
      }
    }
    adversary_ = std::make_unique<net::adversary>(root_rng_.split());
    net_->install_adversary(adversary_.get());
    for (const fault_step& step : sc_.fault_script) schedule_fault_step(step);

    if (hier_metrics_) {
      // Forensics oracle: the fault script is fully declarative, so every
      // fault episode window is known up front. Each window is extended by
      // a slack tail covering not just detection + re-election but the
      // adaptive plane's memory: the link-quality estimators keep ~256
      // samples per link, so an episode's loss/delay pollution mis-tunes
      // the FD operating point for up to a couple of minutes after the
      // revert, and the delayed mistakes it causes are still the fault's.
      const duration slack =
          5 * std::max(sc_.qos.detection_time,
                       sc_.hierarchy.global_qos.detection_time) +
          sec(120);
      std::vector<std::pair<time_point, time_point>> windows;
      for (const fault_step& step : sc_.fault_script) {
        const std::size_t firings =
            step.repeat_every > duration{0} ? step.repeat_count + 1 : 1;
        for (std::size_t k = 0; k < firings; ++k) {
          const time_point from =
              time_origin + step.at +
              step.repeat_every * static_cast<std::int64_t>(k);
          const time_point until = step.lasts > duration{0}
                                       ? from + step.lasts + slack
                                       : time_point::max();
          windows.emplace_back(from, until);
        }
      }
      hier_metrics_->set_fault_oracle(
          [windows = std::move(windows)](time_point start, time_point end) {
            for (const auto& [from, until] : windows) {
              if (start <= until && end >= from) return true;
            }
            return false;
          });
    }
  }
}

experiment::~experiment() {
  for (auto& ws : nodes_) {
    if (ws.churn_timer != no_timer) sim_.cancel(ws.churn_timer);
  }
}

void experiment::boot_node(workstation& ws, time_point join_at) {
  sim_.schedule_at(join_at, [this, &ws] { start_service(ws); });
}

void experiment::start_service(workstation& ws) {
  ws.up = true;
  net_->set_node_alive(ws.node, true);

  service::service_config cfg;
  cfg.self = ws.node;
  cfg.inc = ws.next_inc++;
  cfg.roster.reserve(sc_.nodes);
  for (const auto& other : nodes_) cfg.roster.push_back(other.node);
  cfg.alg = sc_.alg;
  cfg.adaptive = sc_.adaptive;
  if (!obs_.empty()) {
    cfg.sink = &obs_[ws.node.value()]->sink;
    if (sc_.causal) cfg.sink->enable_causal(cfg.inc);
  }
  // Nodes targeted by a fault_skew step read their skewed wrapper — clock
  // AND timers, since protocol code derives absolute timer deadlines from
  // the clock it reads (see skewed_clock.hpp). All other nodes bind the
  // simulator directly (identical object identity to the script-free
  // harness).
  clock_source& clock = ws.clock ? static_cast<clock_source&>(*ws.clock)
                                 : static_cast<clock_source&>(sim_);
  timer_service& timers = ws.timers ? static_cast<timer_service&>(*ws.timers)
                                    : static_cast<timer_service&>(sim_);
  ws.svc = std::make_unique<service::leader_election_service>(
      clock, timers, net_->endpoint(ws.node), cfg);

  const process_id pid = ws.pid;
  ws.svc->register_process(pid);
  metrics_.on_join(sim_.now(), pid);
  if (hier_metrics_) hier_metrics_->on_join(sim_.now(), pid);

  if (topo_) {
    // Hierarchical scenario: the coordinator joins the whole group chain;
    // the experiment's metrics track the top-tier ("global") leader view
    // and the per-region trackers follow the tier-0 views.
    hierarchy::coordinator_options copts;
    copts.region.qos = sc_.qos;
    copts.region.fd_class = sc_.fd_class;
    copts.region.alg = sc_.alg;
    copts.upper.qos = sc_.hierarchy.global_qos;
    copts.scoped_hello = sc_.hierarchy.scoped_hello;
    const std::size_t top = topo_->top_tier();
    ws.coord = std::make_unique<hierarchy::hierarchy_coordinator>(
        *ws.svc, *topo_, pid, copts,
        [this, pid, top](std::size_t tier, std::optional<process_id> leader) {
          if (tier == top) metrics_.on_leader_view(sim_.now(), pid, leader);
          if (tier == 0) hier_metrics_->on_region_view(sim_.now(), pid, leader);
        });
    metrics_.on_leader_view(sim_.now(), pid, ws.coord->global_leader());
    hier_metrics_->on_region_view(sim_.now(), pid, ws.coord->leader(0));
    return;
  }

  const bool candidate =
      sc_.candidates == 0 || ws.pid.value() < sc_.candidates;
  service::join_options jo;
  jo.candidate = candidate;
  jo.qos = sc_.qos;
  jo.fd_class = sc_.fd_class;

  ws.svc->join_group(pid, group_, jo,
                     [this, pid](group_id, std::optional<process_id> leader) {
                       metrics_.on_leader_view(sim_.now(), pid, leader);
                     });
  // The join itself may already have produced a view (e.g. self-leader).
  metrics_.on_leader_view(sim_.now(), pid, ws.svc->leader(group_));
}

void experiment::crash_node(node_id node) {
  workstation& ws = nodes_.at(node.value());
  if (!ws.up) return;
  ws.up = false;
  dead_alive_sent_ += ws.svc->stats().alive_sent;
  if (auto* eng = ws.svc->adaptation()) dead_retunes_ += eng->total_retunes();
  // Final snapshot export before the instance dies: advance_to keeps the
  // node's counter series monotone across the incarnation boundary.
  if (!obs_.empty()) {
    obs::export_service_stats(obs_[node.value()]->metrics, *ws.svc);
  }
  ws.coord.reset();  // no shutdown(): a crash sends no goodbyes
  ws.svc.reset();    // destroys all state; no goodbye messages
  net_->set_node_alive(ws.node, false);
  metrics_.on_crash(sim_.now(), ws.pid);
  if (hier_metrics_) hier_metrics_->on_crash(sim_.now(), ws.pid);
}

void experiment::recover_node(node_id node) {
  workstation& ws = nodes_.at(node.value());
  if (ws.up) return;
  metrics_.on_recover(sim_.now(), ws.pid);
  if (hier_metrics_) hier_metrics_->on_recover(sim_.now(), ws.pid);
  start_service(ws);
}

void experiment::schedule_fault_step(const fault_step& step) {
  const std::size_t firings =
      step.repeat_every > duration{0} ? step.repeat_count + 1 : 1;
  for (std::size_t k = 0; k < firings; ++k) {
    const time_point at =
        time_origin + step.at +
        step.repeat_every * static_cast<std::int64_t>(k);
    sim_.schedule_at(at, [this, action = step.action] { apply_fault(action); });
    if (step.lasts > duration{0}) {
      sim_.schedule_at(at + step.lasts,
                       [this, action = step.action] { revert_fault(action); });
    }
  }
}

std::vector<node_id> experiment::resolve_partition_members(
    const fault_partition& spec) const {
  std::vector<node_id> members = spec.members;
  if (topo_) {
    for (const std::size_t region : spec.regions) {
      for (std::size_t i = 0; i < sc_.nodes; ++i) {
        const node_id n{static_cast<std::uint32_t>(i)};
        if (topo_->region_of(n) == region) members.push_back(n);
      }
    }
  }
  return members;
}

template <typename Fn>
void experiment::for_each_wan_link(Fn&& fn) const {
  for (std::size_t i = 0; i < sc_.nodes; ++i) {
    for (std::size_t j = 0; j < sc_.nodes; ++j) {
      if (i == j) continue;
      const node_id a{static_cast<std::uint32_t>(i)};
      const node_id b{static_cast<std::uint32_t>(j)};
      if (topo_ && topo_->same_region(a, b)) continue;
      fn(a, b);
    }
  }
}

void experiment::apply_fault(const fault_action& action) {
  std::visit(
      [this](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, fault_cut>) {
          adversary_->cut_link(f.from, f.to);
        } else if constexpr (std::is_same_v<T, fault_partition>) {
          adversary_->partition(f.name, resolve_partition_members(f));
        } else if constexpr (std::is_same_v<T, fault_flap>) {
          adversary_->flap_link(f.from, f.to, f.spec);
        } else if constexpr (std::is_same_v<T, fault_flap_wan>) {
          for_each_wan_link(
              [&](node_id a, node_id b) { adversary_->flap_link(a, b, f.spec); });
        } else if constexpr (std::is_same_v<T, fault_duplicate>) {
          adversary_->set_duplication(f.spec);
        } else if constexpr (std::is_same_v<T, fault_reorder>) {
          adversary_->set_reorder(f.spec);
        } else if constexpr (std::is_same_v<T, fault_kind_delay>) {
          adversary_->set_kind_delay(f.kind, f.extra);
        } else if constexpr (std::is_same_v<T, fault_skew>) {
          nodes_.at(f.node.value())
              .clock->set_skew(f.offset, f.drift, sim_.now());
        }
      },
      action);
}

void experiment::revert_fault(const fault_action& action) {
  std::visit(
      [this](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, fault_cut>) {
          adversary_->heal_link(f.from, f.to);
        } else if constexpr (std::is_same_v<T, fault_partition>) {
          adversary_->heal_partition(f.name);
        } else if constexpr (std::is_same_v<T, fault_flap>) {
          adversary_->stop_flap(f.from, f.to);
        } else if constexpr (std::is_same_v<T, fault_flap_wan>) {
          for_each_wan_link(
              [&](node_id a, node_id b) { adversary_->stop_flap(a, b); });
        } else if constexpr (std::is_same_v<T, fault_duplicate>) {
          adversary_->clear_duplication();
        } else if constexpr (std::is_same_v<T, fault_reorder>) {
          adversary_->clear_reorder();
        } else if constexpr (std::is_same_v<T, fault_kind_delay>) {
          adversary_->clear_kind_delay(f.kind);
        } else if constexpr (std::is_same_v<T, fault_skew>) {
          nodes_.at(f.node.value()).clock->clear_skew();
        }
      },
      action);
}

void experiment::schedule_crash(workstation& ws) {
  const duration wait = ws.churn_rng.exponential(ws.churn.mean_uptime);
  ws.churn_timer = sim_.schedule_after(wait, [this, &ws] {
    crash_node(ws.node);
    schedule_recovery(ws);
  });
}

void experiment::schedule_recovery(workstation& ws) {
  const duration wait = ws.churn_rng.exponential(ws.churn.mean_recovery);
  ws.churn_timer = sim_.schedule_after(wait, [this, &ws] {
    recover_node(ws.node);
    schedule_crash(ws);
  });
}

obs::registry* experiment::node_registry(node_id node) {
  return obs_.empty() ? nullptr : &obs_.at(node.value())->metrics;
}

obs::ring_recorder* experiment::node_trace(node_id node) {
  return obs_.empty() ? nullptr : &obs_.at(node.value())->trace;
}

std::vector<obs::trace_event> experiment::merged_trace() const {
  std::vector<obs::trace_event> merged;
  for (const auto& o : obs_) {
    const auto events = o->trace.events();
    merged.insert(merged.end(), events.begin(), events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const obs::trace_event& a, const obs::trace_event& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  return merged;
}

void experiment::export_metrics() {
  if (adversary_) {
    // Fault-plane counters land in the run-scoped registry so forensics
    // can correlate drops/dups with injected faults even when per-node
    // tracing is off.
    const net::adversary::counters& c = adversary_->totals();
    const auto dropped = [&](const char* fault) -> obs::counter& {
      return sim_metrics_.get_counter("omega_adversary_dropped_total",
                                      {{"fault", fault}});
    };
    dropped("cut").advance_to(c.dropped_cut);
    dropped("partition").advance_to(c.dropped_partition);
    dropped("flap").advance_to(c.dropped_flap);
    sim_metrics_.get_counter("omega_adversary_duplicated_total")
        .advance_to(c.duplicated);
    sim_metrics_.get_counter("omega_adversary_reorder_delayed_total")
        .advance_to(c.reorder_delayed);
    sim_metrics_.get_counter("omega_adversary_kind_delayed_total")
        .advance_to(c.kind_delayed);
  }
  if (obs_.empty()) return;
  for (const auto& ws : nodes_) {
    if (ws.svc) {
      obs::export_service_stats(obs_[ws.node.value()]->metrics, *ws.svc);
    }
    // Ring health: how complete the forensic record is. `dropped > 0` means
    // the window outgrew the ring and DAG linkage may report dangling ids.
    node_obs& o = *obs_[ws.node.value()];
    const obs::label_set labels = {{"node", std::to_string(ws.node.value())}};
    o.metrics.get_counter("omega_trace_events_total", labels)
        .advance_to(o.trace.recorded());
    o.metrics.get_counter("omega_trace_dropped_total", labels)
        .advance_to(o.trace.dropped());
  }
}

obs::causal_graph experiment::build_causal_graph() const {
  return obs::causal_graph::build(merged_trace());
}

obs::outage_budget experiment::attribute_outage_dag(
    node_id victim, time_point start, time_point end,
    std::optional<process_id> resolved_leader) const {
  // The harness runs pid i on node i; the sim clock is the shared timeline.
  return build_causal_graph().attribute_outage(
      victim, process_id{victim.value()}, start, end, resolved_leader,
      obs::causal_graph::timeline::sim);
}

bool experiment::serve_http(std::uint16_t port, duration refresh) {
  if (http_ && http_->running()) return true;
  auto ep = std::make_unique<obs::http_endpoint>();
  if (!ep->start(port)) return false;
  http_ = std::move(ep);
  publish_http();
  if (refresh > duration{0}) schedule_http_refresh(refresh);
  return true;
}

void experiment::schedule_http_refresh(duration refresh) {
  sim_.schedule_after(refresh, [this, refresh] {
    publish_http();
    schedule_http_refresh(refresh);
  });
}

void experiment::publish_http() {
  if (!http_ || !http_->running()) return;
  export_metrics();
  std::vector<const obs::registry*> regs;
  regs.reserve(obs_.size() + 1);
  regs.push_back(&sim_metrics_);
  for (const auto& o : obs_) regs.push_back(&o->metrics);
  http_->publish("/metrics", obs::render_prometheus(regs),
                 std::string(obs::http_endpoint::metrics_content_type));
  http_->publish("/trace", obs::render_jsonl(merged_trace()),
                 std::string(obs::http_endpoint::trace_content_type));
}

std::uint64_t experiment::total_alive_sent() const {
  std::uint64_t total = dead_alive_sent_;
  for (const auto& ws : nodes_) {
    if (ws.svc) total += ws.svc->stats().alive_sent;
  }
  return total;
}

std::uint64_t experiment::total_retunes() const {
  std::uint64_t total = dead_retunes_;
  for (const auto& ws : nodes_) {
    if (!ws.svc) continue;
    if (const auto* eng = std::as_const(*ws.svc).adaptation()) {
      total += eng->total_retunes();
    }
  }
  return total;
}

service::leader_election_service* experiment::node_service(node_id node) {
  return nodes_.at(node.value()).svc.get();
}

hierarchy::hierarchy_coordinator* experiment::node_coordinator(node_id node) {
  return nodes_.at(node.value()).coord.get();
}

bool experiment::node_up(node_id node) const { return nodes_.at(node.value()).up; }

experiment_result experiment::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  // Warm-up: stable cluster, estimators converge, leader settles.
  sim_.run_until(time_origin + sc_.warmup);

  metrics_.begin(sim_.now());
  if (hier_metrics_) hier_metrics_->begin(sim_.now());
  net_->reset_traffic();
  const std::uint64_t alive_base = total_alive_sent();
  const std::uint64_t retunes_base = total_retunes();
  for (auto& ws : nodes_) {
    if (ws.churn.enabled) schedule_crash(ws);
  }

  sim_.run_until(time_origin + sc_.warmup + sc_.measured);
  metrics_.finish(sim_.now());
  if (hier_metrics_) hier_metrics_->finish(sim_.now());
  export_metrics();  // end-of-window snapshot for exposition

  experiment_result res;
  res.p_leader = metrics_.leader_availability();
  res.tr_mean_s = metrics_.recovery_times().mean();
  res.tr_ci95_s = metrics_.recovery_times().ci95_half_width();
  res.tr_samples = metrics_.recovery_times().count();
  res.lambda_u = metrics_.mistakes_per_hour();
  res.unjustified = metrics_.unjustified_demotions();
  res.justified = metrics_.justified_changes();
  res.leader_crashes = metrics_.leader_crashes();

  if (hier_metrics_) {
    res.regions.reserve(hier_metrics_->regions());
    for (std::size_t r = 0; r < hier_metrics_->regions(); ++r) {
      const metrics::group_metrics& rm = hier_metrics_->region(r);
      experiment_result::region_result rr;
      rr.availability = rm.leader_availability();
      rr.tr_mean_s = rm.recovery_times().mean();
      rr.tr_samples = rm.recovery_times().count();
      rr.leader_crashes = rm.leader_crashes();
      res.regions.push_back(rr);
    }
    res.outages_blamed_regional = hier_metrics_->outages_blamed_regional();
    res.outages_blamed_global = hier_metrics_->outages_blamed_global();
    res.outages_blamed_fault = hier_metrics_->outages_blamed_fault();
  }

  double cpu = 0.0;
  double kbs = 0.0;
  for (const auto& ws : nodes_) {
    const auto& t = net_->traffic(ws.node);
    cpu += cost_.cpu_percent(t, sc_.measured);
    kbs += metrics::cost_model::sent_kb_per_second(t, sc_.measured);
  }
  res.cpu_percent = cpu / static_cast<double>(sc_.nodes);
  res.kb_per_second = kbs / static_cast<double>(sc_.nodes);
  const double node_seconds =
      to_seconds(sc_.measured) * static_cast<double>(sc_.nodes);
  res.alive_per_node_per_second =
      node_seconds > 0.0
          ? static_cast<double>(total_alive_sent() - alive_base) / node_seconds
          : 0.0;
  res.retunes = total_retunes() - retunes_base;

  res.simulated_hours = to_seconds(sc_.measured) / 3600.0;
  res.events_executed = sim_.events_executed();
  res.wall_clock_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  return res;
}

}  // namespace omega::harness
