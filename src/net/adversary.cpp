#include "net/adversary.hpp"

#include <algorithm>

namespace omega::net {

void adversary::cut_link(node_id from, node_id to) {
  cuts_.insert(link_key(from, to));
}

void adversary::heal_link(node_id from, node_id to) {
  cuts_.erase(link_key(from, to));
}

bool adversary::link_cut(node_id from, node_id to) const {
  return cuts_.find(link_key(from, to)) != cuts_.end();
}

void adversary::partition(std::string name, std::vector<node_id> members) {
  std::unordered_set<std::uint32_t> set;
  set.reserve(members.size());
  for (node_id n : members) set.insert(n.value());
  for (auto& p : partitions_) {
    if (p.name == name) {
      p.members = std::move(set);
      return;
    }
  }
  partitions_.push_back({std::move(name), std::move(set)});
}

bool adversary::heal_partition(std::string_view name) {
  const auto it = std::find_if(
      partitions_.begin(), partitions_.end(),
      [&](const partition_state& p) { return p.name == name; });
  if (it == partitions_.end()) return false;
  partitions_.erase(it);
  return true;
}

void adversary::heal_all_partitions() { partitions_.clear(); }

bool adversary::partitioned(node_id a, node_id b) const {
  for (const auto& p : partitions_) {
    const bool in_a = p.members.find(a.value()) != p.members.end();
    const bool in_b = p.members.find(b.value()) != p.members.end();
    if (in_a != in_b) return true;
  }
  return false;
}

void adversary::flap_link(node_id from, node_id to, flap_spec spec) {
  spec.up_fraction = std::clamp(spec.up_fraction, 0.0, 1.0);
  if (spec.period <= duration{0}) spec.period = usec(1);
  flaps_[link_key(from, to)] = spec;
}

void adversary::stop_flap(node_id from, node_id to) {
  flaps_.erase(link_key(from, to));
}

bool adversary::duty_up(const flap_spec& spec, time_point now) {
  const std::int64_t period = spec.period.count();
  std::int64_t pos = (now.time_since_epoch() + spec.phase).count() % period;
  if (pos < 0) pos += period;
  const auto up_window = static_cast<std::int64_t>(
      spec.up_fraction * static_cast<double>(period));
  return pos < up_window;
}

bool adversary::flap_up(node_id from, node_id to, time_point now) const {
  const auto it = flaps_.find(link_key(from, to));
  return it == flaps_.end() || duty_up(it->second, now);
}

void adversary::set_kind_delay(proto::msg_kind kind, duration extra) {
  kind_delay_[kind_slot(kind)] = extra;
  any_kind_delay_ = false;
  for (std::size_t i = 0; i < kind_slots; ++i) {
    if (kind_delay_[i] > duration{0}) any_kind_delay_ = true;
  }
}

void adversary::clear_kind_delay(proto::msg_kind kind) {
  set_kind_delay(kind, duration{0});
}

void adversary::clear_kind_delays() {
  kind_delay_.fill(duration{0});
  any_kind_delay_ = false;
}

bool adversary::should_drop(node_id from, node_id to, time_point now) {
  if (!cuts_.empty() && cuts_.find(link_key(from, to)) != cuts_.end()) {
    ++counters_.dropped_cut;
    return true;
  }
  if (!partitions_.empty() && partitioned(from, to)) {
    ++counters_.dropped_partition;
    return true;
  }
  if (!flaps_.empty()) {
    const auto it = flaps_.find(link_key(from, to));
    if (it != flaps_.end() && !duty_up(it->second, now)) {
      ++counters_.dropped_flap;
      return true;
    }
  }
  return false;
}

duration adversary::extra_delay(node_id from, node_id to,
                                std::span<const std::byte> payload) {
  duration extra{0};
  if (any_kind_delay_) {
    if (const auto kind = proto::peek_kind(payload)) {
      const duration d = kind_delay_[kind_slot(*kind)];
      if (d > duration{0}) {
        extra += d;
        ++counters_.kind_delayed;
      }
    }
  }
  if (reorder_.window > 1) {
    std::uint64_t& sent = reorder_pos_[link_key(from, to)];
    const auto slot = static_cast<std::size_t>(sent % reorder_.window);
    ++sent;
    const duration d = reorder_.spacing *
                       static_cast<std::int64_t>(reorder_.window - 1 - slot);
    if (d > duration{0}) {
      extra += d;
      ++counters_.reorder_delayed;
    }
  }
  return extra;
}

std::size_t adversary::plan_duplicates(duration* extra_delays) {
  if (dup_.probability <= 0.0 || dup_.max_copies == 0) return 0;
  if (!rng_.bernoulli(dup_.probability)) return 0;
  std::size_t copies = std::min(dup_.max_copies, max_duplicate_copies);
  if (copies > 1) copies = 1 + static_cast<std::size_t>(rng_.uniform_below(copies));
  const std::int64_t spread = std::max<std::int64_t>(dup_.spread.count(), 1);
  for (std::size_t i = 0; i < copies; ++i) {
    // Uniform in (0, spread]: a duplicate never lands strictly before (or
    // tied with) the original's slot unless the link jitter makes it so.
    extra_delays[i] =
        duration{1 + static_cast<std::int64_t>(rng_.uniform_below(
                         static_cast<std::uint64_t>(spread)))};
  }
  counters_.duplicated += copies;
  return copies;
}

}  // namespace omega::net
