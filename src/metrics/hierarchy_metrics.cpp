#include "metrics/hierarchy_metrics.hpp"

#include <stdexcept>
#include <utility>

namespace omega::metrics {

hierarchy_metrics::hierarchy_metrics(std::size_t regions, region_of_fn region_of)
    : regions_(regions), region_of_(std::move(region_of)) {
  if (regions == 0) throw std::invalid_argument("hierarchy_metrics: no regions");
  if (!region_of_) throw std::invalid_argument("hierarchy_metrics: no region map");
}

void hierarchy_metrics::set_justification_window(duration window) {
  justification_window_ = window;
  for (auto& r : regions_) r.set_justification_window(window);
}

void hierarchy_metrics::begin(time_point start) {
  accounting_ = true;
  for (auto& r : regions_) r.begin(start);
}

void hierarchy_metrics::finish(time_point end) {
  accounting_ = false;
  for (auto& r : regions_) r.finish(end);
}

void hierarchy_metrics::on_join(time_point now, process_id pid) {
  regions_.at(region_of_(pid)).on_join(now, pid);
}

void hierarchy_metrics::on_leave(time_point now, process_id pid) {
  last_departure_[pid] = now;
  if ((outage_victim_ && *outage_victim_ == pid) ||
      (!outage_victim_ && global_leader_ && *global_leader_ == pid)) {
    outage_victim_departed_ = true;
  }
  regions_.at(region_of_(pid)).on_leave(now, pid);
}

void hierarchy_metrics::on_crash(time_point now, process_id pid) {
  last_departure_[pid] = now;
  if ((outage_victim_ && *outage_victim_ == pid) ||
      (!outage_victim_ && global_leader_ && *global_leader_ == pid)) {
    outage_victim_departed_ = true;
  }
  regions_.at(region_of_(pid)).on_crash(now, pid);
}

void hierarchy_metrics::on_recover(time_point now, process_id pid) {
  regions_.at(region_of_(pid)).on_recover(now, pid);
}

void hierarchy_metrics::on_region_view(time_point now, process_id viewer,
                                       std::optional<process_id> leader) {
  regions_.at(region_of_(viewer)).on_leader_view(now, viewer, leader);
}

bool hierarchy_metrics::recently_departed(process_id pid, time_point now) const {
  auto it = last_departure_.find(pid);
  if (it == last_departure_.end()) return false;
  return now - it->second <= justification_window_;
}

void hierarchy_metrics::classify(time_point now, process_id old_leader,
                                 process_id new_leader, duration outage) {
  if (!accounting_) return;
  if (!outage_victim_departed_ && !recently_departed(old_leader, now)) {
    // The old leader is still healthy: a failover neither tier can be
    // blamed for. If an injected network fault overlapped the outage
    // window, blame the fault; otherwise it is an unattributed blip.
    if (fault_oracle_ && fault_oracle_(now - outage, now)) {
      ++blamed_fault_;
    } else {
      ++unattributed_;
    }
    return;
  }
  if (region_of_(new_leader) == region_of_(old_leader)) {
    // Resolved from inside the crashed leader's region: the global vacancy
    // waited on that region's failover + promotion chain.
    ++blamed_regional_;
  } else {
    // An established candidate from another region took over first.
    ++blamed_global_;
  }
}

void hierarchy_metrics::on_global_agreement(time_point now,
                                            std::optional<process_id> agreed) {
  if (agreed == global_leader_) return;
  if (!agreed.has_value()) {
    // Agreement lost: open an outage against the leader that held it.
    if (global_leader_ && !outage_victim_) {
      outage_victim_ = global_leader_;
      outage_start_ = now;
    }
  } else {
    if (outage_victim_) {
      // Re-agreement on the same leader is a blip, not a resolved outage.
      if (*agreed != *outage_victim_) {
        classify(now, *outage_victim_, *agreed, now - outage_start_);
      }
      outage_victim_.reset();
    } else if (global_leader_ && *agreed != *global_leader_) {
      // Direct L -> L' switch with no leaderless gap (e.g. the crash was
      // detected and the successor adopted within one refresh).
      classify(now, *global_leader_, *agreed, duration{0});
    }
    outage_victim_departed_ = false;
  }
  global_leader_ = agreed;
}

}  // namespace omega::metrics
