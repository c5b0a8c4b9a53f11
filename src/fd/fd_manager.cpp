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
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  group_record& record = git->second;
  record.pinned = params;
  // Apply the new delta to existing monitors immediately; rates follow on
  // the next reconfiguration pass (hysteresis applies there as usual).
  // Remotes with a per-remote refinement keep their more specific point.
  for (auto& [node, state] : remotes_) {
    if (record.refinements.contains(node)) continue;
    if (link_record* link = state->find(group)) link->pin(params);
  }
}

void fd_manager::set_params_override(group_id group, node_id remote,
                                     fd_params params) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  git->second.refinements[remote] = params;
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return;
  if (link_record* link = it->second->find(group)) link->pin(params);
}

void fd_manager::clear_params_override(group_id group) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  git->second.pinned.reset();
  git->second.refinements.clear();
  for (auto& [node, state] : remotes_) {
    if (link_record* link = state->find(group)) {
      link->monitor->set_delta(std::nullopt);
    }
  }
}

void fd_manager::clear_params_override(group_id group, node_id remote) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  git->second.refinements.erase(remote);
  // A group default pins the link again on the next pass; without one the
  // monitor returns to the detection horizon now.
  if (git->second.pinned) return;
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return;
  if (link_record* link = it->second->find(group)) {
    link->monitor->set_delta(std::nullopt);
  }
}

std::optional<fd_params> fd_manager::params_override(group_id group) const {
  auto git = groups_.find(group);
  if (git == groups_.end()) return std::nullopt;
  return git->second.pinned;
}

std::optional<fd_params> fd_manager::params_override(group_id group,
                                                     node_id remote) const {
  auto git = groups_.find(group);
  if (git == groups_.end()) return std::nullopt;
  return git->second.resolve(remote);
}

void fd_manager::add_group(group_id group, const qos_spec& qos) {
  groups_[group].qos = qos;
}

void fd_manager::set_group_class(group_id group, std::string label) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  git->second.label = std::move(label);
  for (auto& [node, state] : remotes_) {
    if (link_record* link = state->find(group)) {
      link->interarrival = interarrival_cell(git->second.label);
    }
  }
}

obs::histogram* fd_manager::interarrival_cell(const std::string& label) {
  if (sink_ == nullptr || sink_->metrics() == nullptr) return nullptr;
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
  for (auto& [node, state] : remotes_) {
    state->lqe.drop_stream(group);
    std::erase_if(state->links,
                  [group](const link_record& l) { return l.group == group; });
  }
}

fd_manager::link_record& fd_manager::add_link(group_id group,
                                              const group_record& record,
                                              node_id remote,
                                              remote_state& state) {
  auto monitor = std::make_unique<heartbeat_monitor>(
      clock_, timers_, record.qos.detection_time,
      [this, group, remote](bool trusted) {
        // Causal root when the edge fires from the monitor's own timeout
        // (a suspicion is spontaneous evidence); a trust edge raised while
        // handling an ALIVE is already inside the datagram's activation
        // and keeps that cause.
        obs::sink::activation causal_scope(sink_);
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
            if (const link_record* link = find_link(group, remote)) {
              ev.value = to_seconds(ev.at - link->monitor->last_heartbeat());
            }
          }
          sink_->record(ev);
        }
        // The monitor set its verdict before calling back, so an
        // is_trusted from inside the handler already reads the new edge.
        if (on_transition_) on_transition_(group, remote, trusted);
      });
  if (auto pinned = record.resolve(remote)) monitor->set_delta(pinned->delta);
  return state.links.emplace_back(link_record{
      group, std::move(monitor), std::nullopt, interarrival_cell(record.label)});
}

const fd_manager::link_record* fd_manager::find_link(group_id group,
                                                     node_id remote) const {
  auto it = remotes_.find(remote);
  return it != remotes_.end() ? it->second->find(group) : nullptr;
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
    state.links.clear();
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
    link_record* link = state.find(payload.group);
    if (link == nullptr) {
      auto git = groups_.find(payload.group);
      if (git == groups_.end()) continue;  // not ours
      link = &add_link(payload.group, git->second, msg.from, state);
    }
    state.lqe.on_sequence(payload.group, payload.seq);
    if (have_gap && link->interarrival != nullptr && observed_n < 4) {
      bool seen = false;
      for (std::size_t i = 0; i < observed_n; ++i) {
        if (observed[i] == link->interarrival) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        observed[observed_n++] = link->interarrival;
        link->interarrival->observe(to_seconds(gap));
      }
    }
    // Last use of `link`: the trust edge this may raise can re-enter and
    // erase records.
    link->monitor->on_heartbeat(msg.send_time, msg.eta);
  }
  if (on_link_sample_) on_link_sample_(msg.from, state.lqe.estimate(), recv_time);
}

void fd_manager::drop(group_id group, node_id remote) {
  if (auto git = groups_.find(group); git != groups_.end()) {
    git->second.refinements.erase(remote);
  }
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return;
  it->second->lqe.drop_stream(group);
  std::erase_if(it->second->links,
                [group](const link_record& l) { return l.group == group; });
  // The dropped group may have been the one pinning this remote to a fast
  // heartbeat rate; renegotiate from the remaining groups immediately
  // instead of leaving the stale request in force until the next refresh.
  renegotiate_rate(remote, *it->second, clock_.now());
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
        std::any_of(state->links.begin(), state->links.end(),
                    [](const link_record& l) { return l.monitor->trusted(); });
    if (!any_trusted && state->last_heard + kMonitorGcAfter < now) {
      gc.push_back(node);
    }
  }
  for (node_id node : gc) {
    // A GC'd remote's per-remote refinements must not apply to its
    // reincarnation on a possibly different link.
    for (auto& [group, record] : groups_) record.refinements.erase(node);
    remotes_.erase(node);
  }
}

void fd_manager::reconfigure_remote(node_id remote, remote_state& state) {
  const link_estimate link = state.lqe.estimate();

  // Only groups that actually monitor this remote get an operating point
  // (and a say in its rate): iterating all registered groups here would
  // resurrect params for a (group, remote) that `drop` just tore down and
  // re-pin the dropped group's fast rate on the next pass.
  for (link_record& rec : state.links) {
    // A link exists only while its group is registered (remove_group
    // erases the group's links).
    const group_record& record = groups_.at(rec.group);
    // Per-(group, remote) resolution: refinement > group default pin
    // (eta, delta). An unpinned monitor keeps delta = T^U_D - the
    // announced eta and only picks the eta it asks for, solved against
    // *this* remote's link estimate; while that estimate is cold it asks
    // for nothing, so a newcomer never pulls a settled sender's rate.
    if (auto pinned = record.resolve(remote)) {
      rec.pin(*pinned);
    } else if (link.samples >= kMinSamples) {
      rec.params = configure(record.qos, link);
    } else {
      rec.params.reset();
    }
  }
  renegotiate_rate(remote, state, clock_.now());
}

void fd_manager::renegotiate_rate(node_id remote, remote_state& state,
                                  time_point now) {
  // Min-combine the per-remote etas across all groups monitoring this
  // remote: the sender must satisfy its most demanding local group.
  duration min_eta{0};
  for (const link_record& link : state.links) {
    if (!link.params) continue;
    if (min_eta == duration{0} || link.params->eta < min_eta) {
      min_eta = link.params->eta;
    }
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
  const link_record* link = find_link(group, remote);
  return link != nullptr && link->monitor->trusted();
}

link_estimate fd_manager::link_quality(node_id remote) const {
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return link_estimate{};
  return it->second->lqe.estimate();
}

fd_params fd_manager::current_params(group_id group, node_id remote) const {
  auto git = groups_.find(group);
  if (git != groups_.end()) {
    if (auto pinned = git->second.resolve(remote)) return *pinned;
  }
  if (const link_record* link = find_link(group, remote);
      link != nullptr && link->params) {
    return *link->params;
  }
  const qos_spec qos = git != groups_.end() ? git->second.qos : qos_spec{};
  return fd_params{duration{0}, qos.detection_time, false};
}

duration fd_manager::requested_eta(node_id remote) const {
  auto it = remotes_.find(remote);
  if (it == remotes_.end()) return duration{0};
  return it->second->last_requested_eta;
}

std::size_t fd_manager::monitor_count() const {
  std::size_t n = 0;
  for (const auto& [node, state] : remotes_) n += state->links.size();
  return n;
}

std::size_t fd_manager::plan_refinement_count() const {
  std::size_t n = 0;
  for (const auto& [group, record] : groups_) n += record.refinements.size();
  return n;
}

}  // namespace omega::fd
