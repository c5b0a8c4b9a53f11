#include "adaptive/engine.hpp"

#include <optional>
#include <utility>
#include <vector>

namespace omega::adaptive {

std::string_view to_string(tuning_mode mode) {
  switch (mode) {
    case tuning_mode::continuous: return "continuous";
    case tuning_mode::frozen: return "frozen";
    case tuning_mode::adaptive: return "adaptive";
  }
  return "unknown";
}

engine::engine(clock_source& clock, timer_service& timers, fd::fd_manager& fd,
               engine_options opts)
    : clock_(clock),
      fd_(fd),
      opts_(opts),
      tick_timer_(timers) {}

engine::~engine() { stop(); }

void engine::start() {
  if (running_) return;
  running_ = true;
  tick_timer_.arm_after(kTickInterval, [this] { tick(); });
}

void engine::stop() {
  running_ = false;
  tick_timer_.cancel();
}

void engine::add_group(group_id group, const fd::qos_spec& qos,
                       qos_class cls) {
  retuners_[group] = std::make_unique<retuner>(qos, cls);
  // Pin the cold-start point as the group default immediately: until the
  // tracker has confident estimates the adaptive instance behaves exactly
  // like the frozen one.
  fd_.set_params_override(group, fd::cold_start_params(qos));
}

void engine::remove_group(group_id group) {
  retuners_.erase(group);
  fd_.clear_params_override(group);
}

void engine::on_link_sample(node_id peer, const fd::link_estimate& est,
                            time_point now) {
  tracker_.observe(peer, est, now);
}

void engine::on_group_member_dropped(group_id group, node_id node) {
  auto it = retuners_.find(group);
  if (it != retuners_.end()) it->second->forget_peer(node);
}

void engine::on_node_dropped(node_id node) {
  tracker_.forget(node);
  // Per-remote refinements for a gone node are stale policy: clear them so
  // a reappearing node starts from the group default, not the old link's
  // operating point.
  for (auto& [group, rt] : retuners_) {
    rt->forget_peer(node);
    fd_.clear_params_override(group, node);
  }
}

const retuner* engine::retuner_for(group_id group) const {
  auto it = retuners_.find(group);
  return it != retuners_.end() ? it->second.get() : nullptr;
}

std::uint64_t engine::total_retunes() const {
  std::uint64_t n = 0;
  for (const auto& [group, rt] : retuners_) n += rt->retune_count();
  return n;
}

void engine::tick() {
  // Periodic retune pass: a causal root (retune events are inert anyway,
  // but rate renegotiations it triggers must not inherit a stale cause).
  obs::sink::activation causal_scope(sink_);
  const time_point now = clock_.now();
  const fd::link_estimate binding = tracker_.aggregate(now);
  // The tracked estimate is per peer, not per (group, peer): blend each
  // window once and reuse it across every group's retuner.
  std::vector<std::pair<node_id, std::optional<fd::link_estimate>>> peers;
  if (opts_.per_link) {
    for (node_id peer : tracker_.peers()) {
      peers.emplace_back(peer, tracker_.tracked(peer, now));
    }
  }

  for (auto& [group, rt] : retuners_) {
    // Group default from the robust cluster aggregate: the layer that
    // covers peers whose own window is not (yet) confident.
    if (auto params = rt->evaluate(binding, now)) {
      fd_.set_params_override(group, *params);
      if (sink_) {
        obs::trace_event ev;
        ev.kind = obs::event_kind::retune;
        ev.at = now;
        ev.group = group;
        ev.value = to_seconds(params->eta);
        sink_->record(ev);
      }
    }
    // Per-link refinements from each peer's own tracked window.
    for (const auto& [peer, est] : peers) {
      if (!est || est->samples < fd::kMinSamples) {
        // Stale or unknown link: drop the refinement so the conservative
        // group default applies again (and damping restarts on return).
        if (rt->has_peer(peer)) {
          rt->forget_peer(peer);
          fd_.clear_params_override(group, peer);
        }
        continue;
      }
      if (auto params = rt->evaluate_peer(peer, *est, now)) {
        fd_.set_params_override(group, peer, *params);
        if (sink_) {
          obs::trace_event ev;
          ev.kind = obs::event_kind::retune;
          ev.at = now;
          ev.group = group;
          ev.peer = peer;  // per-link refinement (unset peer = group default)
          ev.value = to_seconds(params->eta);
          sink_->record(ev);
        }
      }
    }
  }

  if (running_) {
    tick_timer_.arm_after(kTickInterval, [this] { tick(); });
  }
}

}  // namespace omega::adaptive
