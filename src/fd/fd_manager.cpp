#include "fd/fd_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace omega::fd {

fd_manager::fd_manager(clock_source& clock, timer_service& timers)
    : clock_(clock), timers_(timers), reconfig_timer_(timers) {}

fd_manager::~fd_manager() { stop(); }

void fd_manager::set_transition_handler(transition_handler handler) {
  on_transition_ = std::move(handler);
}

void fd_manager::set_rate_request_fn(rate_request_fn fn) {
  send_rate_request_ = std::move(fn);
}

void fd_manager::set_link_observer(link_observer observer) {
  on_link_sample_ = std::move(observer);
}

void fd_manager::set_params_override(group_id group, fd_params params) {
  param_plan& plan = plans_[group];
  plan.set_group_default(params);
  // Apply the new delta to existing monitors immediately; rates follow on
  // the next reconfiguration pass (hysteresis applies there as usual).
  // Remotes with a per-remote refinement keep their more specific layer.
  // The params cache stays monitor-scoped: a remote not monitored in this
  // group must not have the group's eta min-combined into its rate.
  for (auto& [node, state] : remotes_) {
    if (plan.has_remote(node)) continue;
    auto it = state->monitors.find(group);
    if (it == state->monitors.end()) continue;
    state->params[group] = params;
    it->second->set_delta(params.delta);
  }
}

void fd_manager::set_params_override(group_id group, node_id remote,
                                     fd_params params) {
  plans_[group].set_remote(remote, params);
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return;
  auto m = it->second->monitors.find(group);
  if (m == it->second->monitors.end()) return;
  it->second->params[group] = params;
  m->second->set_delta(params.delta);
}

void fd_manager::clear_params_override(group_id group) {
  plans_.erase(group);
  for (auto& [node, state] : remotes_) unpin(group, *state);
}

void fd_manager::clear_params_override(group_id group, node_id remote) {
  auto it = plans_.find(group);
  if (it == plans_.end()) return;
  it->second.clear_remote(remote);
  // A group default pins the link again on the next pass; without one the
  // monitor returns to the detection horizon now.
  if (it->second.group_default()) return;
  if (it->second.empty()) plans_.erase(it);
  if (auto r = remotes_.find(remote); r != remotes_.end()) {
    unpin(group, *r->second);
  }
}

void fd_manager::unpin(group_id group, remote_state& state) {
  auto it = state.monitors.find(group);
  if (it != state.monitors.end()) it->second->set_delta(std::nullopt);
}

std::optional<fd_params> fd_manager::params_override(group_id group) const {
  auto it = plans_.find(group);
  if (it == plans_.end()) return std::nullopt;
  return it->second.group_default();
}

std::optional<fd_params> fd_manager::params_override(group_id group,
                                                     node_id remote) const {
  auto it = plans_.find(group);
  if (it == plans_.end()) return std::nullopt;
  return it->second.resolve(remote);
}

void fd_manager::add_group(group_id group, const qos_spec& qos) {
  groups_[group] = qos;
}

void fd_manager::set_group_class(group_id group, std::string label) {
  classes_[group] = std::move(label);
  // Cached inter-arrival cells may now point at the wrong class series.
  for (auto& [node, state] : remotes_) state->hot.clear();
}

obs::histogram* fd_manager::interarrival_cell(group_id group) {
  if (sink_ == nullptr || sink_->metrics() == nullptr) return nullptr;
  static const std::string default_class = "default";
  auto it = classes_.find(group);
  const std::string& label = it != classes_.end() ? it->second : default_class;
  // Bounds span the experiments' heartbeat cadences: eta = detection/4
  // puts interactive links around tens of ms and background links at
  // multiple seconds.
  // The node label disambiguates the series when many instances' registries
  // are merged into one exposition page (harness / udp_live /metrics).
  return &sink_->metrics()->get_histogram(
      "omega_heartbeat_interarrival_seconds",
      {{"class", label}, {"node", std::to_string(sink_->self().value())}},
      {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5});
}

void fd_manager::remove_group(group_id group) {
  groups_.erase(group);
  plans_.erase(group);
  for (auto& [node, state] : remotes_) {
    trusted_pairs_.erase(trust_key(group, node));
    state->lqe.drop_stream(group);
    state->monitors.erase(group);
    state->params.erase(group);
    state->hot.clear();
  }
}

heartbeat_monitor& fd_manager::ensure_monitor(group_id group,
                                              const qos_spec& qos,
                                              node_id remote,
                                              remote_state& state) {
  auto it = state.monitors.find(group);
  if (it == state.monitors.end()) {
    auto monitor = std::make_unique<heartbeat_monitor>(
        clock_, timers_, qos.detection_time, [this, group, remote](bool trusted) {
          // Causal root when the edge fires from the monitor's own timeout
          // (a suspicion is spontaneous evidence); a trust edge raised while
          // handling an ALIVE is already inside the datagram's activation
          // and keeps that cause.
          obs::sink::activation causal_scope(sink_);
          // Mirror first: the transition handler re-enters is_trusted via
          // the elector re-evaluation.
          if (trusted) {
            trusted_pairs_.insert(trust_key(group, remote));
          } else {
            trusted_pairs_.erase(trust_key(group, remote));
          }
          if (sink_) {
            obs::trace_event ev;
            ev.kind = trusted ? obs::event_kind::suspicion_cleared
                              : obs::event_kind::suspicion_raised;
            ev.at = clock_.now();
            ev.group = group;
            ev.peer = remote;
            if (!trusted) {
              // Staleness of the suspect's evidence: how long since its
              // last heartbeat (the forensics detection phase reads this).
              if (auto rit = remotes_.find(remote); rit != remotes_.end()) {
                auto mit = rit->second->monitors.find(group);
                if (mit != rit->second->monitors.end()) {
                  ev.value =
                      to_seconds(ev.at - mit->second->last_heartbeat());
                }
              }
            }
            sink_->record(ev);
          }
          if (on_transition_) on_transition_(group, remote, trusted);
        });
    if (auto pinned = params_override(group, remote)) {
      monitor->set_delta(pinned->delta);
    }
    it = state.monitors.emplace(group, std::move(monitor)).first;
  }
  return *it->second;
}

void fd_manager::on_alive(const proto::alive_msg& msg, time_point recv_time) {
  auto [it, inserted] = remotes_.try_emplace(msg.from, nullptr);
  if (inserted) {
    it->second = std::make_unique<remote_state>();
    it->second->inc = msg.inc;
  }
  remote_state& state = *it->second;
  if (msg.inc < state.inc) return;  // stale incarnation: drop entirely
  if (msg.inc > state.inc) {
    // The node restarted: its old stream statistics and freshness no longer
    // describe this incarnation, and it holds none of our rate requests.
    state.inc = msg.inc;
    state.lqe.reset();
    forget_trust(msg.from, state);
    state.monitors.clear();
    state.params.clear();
    state.hot.clear();
    state.last_requested_eta = duration{0};
  }
  // Node-level inter-arrival gap, taken before last_heard is overwritten;
  // observed below once per distinct QoS class among the carried groups.
  const bool have_gap = state.last_heard != time_point{};
  const duration gap = have_gap ? recv_time - state.last_heard : duration{};
  state.last_heard = recv_time;
  state.lqe.on_heartbeat(msg.send_time, recv_time);

  // Distinct class cells already observed for this ALIVE (groups sharing a
  // class share a cell, so pointer identity is the dedup key).
  obs::histogram* observed[4] = {};
  std::size_t observed_n = 0;

  for (const auto& payload : msg.groups) {
    // Hot path: one linear probe of the positive cache instead of two hash
    // lookups (groups_ + monitors) per carried payload.
    const remote_state::hot_entry* entry = nullptr;
    for (const auto& e : state.hot) {
      if (e.group == payload.group) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      auto git = groups_.find(payload.group);
      if (git == groups_.end()) continue;  // not ours
      heartbeat_monitor* mon =
          &ensure_monitor(payload.group, git->second, msg.from, state);
      state.hot.push_back({payload.group, mon, interarrival_cell(payload.group)});
      entry = &state.hot.back();
    }
    state.lqe.on_sequence(payload.group, payload.seq);
    if (have_gap && entry->interarrival != nullptr && observed_n < 4) {
      bool seen = false;
      for (std::size_t i = 0; i < observed_n; ++i) {
        if (observed[i] == entry->interarrival) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        observed[observed_n++] = entry->interarrival;
        entry->interarrival->observe(to_seconds(gap));
      }
    }
    entry->monitor->on_heartbeat(msg.send_time, msg.eta);
  }
  if (on_link_sample_) on_link_sample_(msg.from, state.lqe.estimate(), recv_time);
}

void fd_manager::drop(group_id group, node_id remote) {
  if (auto plan = plans_.find(group); plan != plans_.end()) {
    plan->second.clear_remote(remote);
    if (plan->second.empty()) plans_.erase(plan);
  }
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return;
  trusted_pairs_.erase(trust_key(group, remote));
  it->second->lqe.drop_stream(group);
  it->second->monitors.erase(group);
  it->second->params.erase(group);
  it->second->hot.clear();
  // The dropped group may have been the one pinning this remote to a fast
  // heartbeat rate; renegotiate from the remaining groups immediately
  // instead of leaving the stale request in force until the next refresh.
  renegotiate_rate(remote, *it->second, clock_.now());
}

void fd_manager::forget_remote_refinements(node_id remote) {
  for (auto it = plans_.begin(); it != plans_.end();) {
    it->second.clear_remote(remote);
    if (it->second.empty()) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
}

void fd_manager::drop_node(node_id remote) {
  forget_remote_refinements(remote);
  if (auto it = remotes_.find(remote); it != remotes_.end()) {
    forget_trust(remote, *it->second);
    remotes_.erase(it);
  }
}

void fd_manager::forget_trust(node_id remote, const remote_state& state) {
  for (const auto& [group, monitor] : state.monitors) {
    trusted_pairs_.erase(trust_key(group, remote));
  }
}

void fd_manager::start() {
  if (running_) return;
  running_ = true;
  reconfig_timer_.arm_after(kReconfigInterval, [this] { tick(); });
}

void fd_manager::tick() {
  reconfigure_all();
  if (running_) {
    reconfig_timer_.arm_after(kReconfigInterval, [this] { tick(); });
  }
}

void fd_manager::stop() {
  running_ = false;
  reconfig_timer_.cancel();
}

void fd_manager::reconfigure_all() {
  const time_point now = clock_.now();
  std::vector<node_id> gc;
  for (auto& [node, state] : remotes_) {
    reconfigure_remote(node, *state);
    // GC: remotes silent for a long time with no trusted monitor hold no
    // useful state (a re-appearing node is re-learned from its next ALIVE).
    const bool any_trusted =
        std::any_of(state->monitors.begin(), state->monitors.end(),
                    [](const auto& kv) { return kv.second->trusted(); });
    if (!any_trusted && state->last_heard + kMonitorGcAfter < now) {
      gc.push_back(node);
    }
  }
  for (node_id node : gc) {
    // Same hygiene as drop_node: a GC'd remote's per-remote refinements
    // must not apply to its reincarnation on a possibly different link.
    // (No monitor is trusted here — GC requires it — but clear the trust
    // mirror under the same invariant as every other teardown.)
    forget_remote_refinements(node);
    if (auto it = remotes_.find(node); it != remotes_.end()) {
      forget_trust(node, *it->second);
      remotes_.erase(it);
    }
  }
}

void fd_manager::reconfigure_remote(node_id remote, remote_state& state) {
  const link_estimate link = state.lqe.estimate();

  // Only groups that actually monitor this remote get an operating point
  // (and a say in its rate): iterating all registered groups here would
  // resurrect params for a (group, remote) that `drop` just tore down and
  // re-pin the dropped group's fast rate on the next pass.
  for (auto& [group, monitor] : state.monitors) {
    auto git = groups_.find(group);
    if (git == groups_.end()) continue;
    // Per-(group, remote) resolution: plan refinement > plan group default
    // pin (eta, delta). An unpinned monitor keeps delta = T^U_D - the
    // announced eta and only picks the eta it asks for, solved against
    // *this* remote's link estimate; while that estimate is cold it asks
    // for nothing, so a newcomer never pulls a settled sender's rate.
    if (auto pinned = params_override(group, remote)) {
      state.params[group] = *pinned;
      monitor->set_delta(pinned->delta);
    } else if (link.samples >= kMinSamples) {
      state.params[group] = configure(git->second, link);
    } else {
      state.params.erase(group);
    }
  }
  renegotiate_rate(remote, state, clock_.now());
}

void fd_manager::renegotiate_rate(node_id remote, remote_state& state,
                                  time_point now) {
  // Min-combine the per-remote etas across all groups monitoring this
  // remote: the sender must satisfy its most demanding local group.
  duration min_eta{0};
  for (const auto& [group, params] : state.params) {
    if (groups_.find(group) == groups_.end()) continue;  // group removed
    if (state.monitors.find(group) == state.monitors.end()) continue;
    if (min_eta == duration{0} || params.eta < min_eta) min_eta = params.eta;
  }
  if (min_eta == duration{0}) return;  // nothing monitored here any more

  // Hysteresis; skip long-silent remotes.
  if (!send_rate_request_) return;
  if (state.last_heard == time_point{} ||
      state.last_heard + kRateSilenceCutoff < now) {
    return;
  }
  const bool first = state.last_requested_eta == duration{0};
  const double old_s = to_seconds(state.last_requested_eta);
  const double new_s = to_seconds(min_eta);
  const bool changed =
      first || std::abs(new_s - old_s) > kRateHysteresis * old_s;
  const bool refresh_due = state.last_rate_sent + kRateRefresh <= now;
  if (changed || refresh_due) {
    state.last_requested_eta = min_eta;
    state.last_rate_sent = now;
    send_rate_request_(remote, min_eta);
  }
}

bool fd_manager::is_trusted(group_id group, node_id remote) const {
  return trusted_pairs_.find(trust_key(group, remote)) != trusted_pairs_.end();
}

link_estimate fd_manager::link_quality(node_id remote) const {
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return link_estimate{};
  return it->second->lqe.estimate();
}

fd_params fd_manager::current_params(group_id group, node_id remote) const {
  if (auto pinned = params_override(group, remote)) return *pinned;
  if (auto it = remotes_.find(remote); it != remotes_.end()) {
    auto p = it->second->params.find(group);
    if (p != it->second->params.end()) return p->second;
  }
  auto git = groups_.find(group);
  const qos_spec qos = git != groups_.end() ? git->second : qos_spec{};
  return fd_params{duration{0}, qos.detection_time, false};
}

duration fd_manager::requested_eta(node_id remote) const {
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return duration{0};
  return it->second->last_requested_eta;
}

std::size_t fd_manager::monitor_count() const {
  std::size_t n = 0;
  for (const auto& [node, state] : remotes_) n += state->monitors.size();
  return n;
}

std::size_t fd_manager::plan_refinement_count() const {
  std::size_t n = 0;
  for (const auto& [group, plan] : plans_) n += plan.remote_count();
  return n;
}

}  // namespace omega::fd
