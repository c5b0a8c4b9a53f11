#include "net/sim_network.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/adversary.hpp"
#include "proto/wire.hpp"

namespace omega::net {

class sim_network::endpoint_impl final : public transport {
 public:
  endpoint_impl(sim_network& net, node_id self) : net_(net), self_(self) {}

  void send(node_id dst, std::span<const std::byte> payload) override {
    net_.on_send(self_, dst, payload);
  }

  void send(node_id dst, shared_payload payload) override {
    net_.on_send(self_, dst, std::move(payload));
  }

  void multicast(std::span<const node_id> dsts,
                 shared_payload payload) override {
    // Encode-once fan-out: every destination's delivery event references
    // the same sealed buffer. Destination order matches the looping
    // default, so event scheduling (and the trace) is unchanged.
    for (node_id dst : dsts) net_.on_send(self_, dst, payload);
  }

  [[nodiscard]] payload_pool& pool() override { return net_.pool_; }

  [[nodiscard]] node_id local_node() const override { return self_; }

  void set_receive_handler(receive_handler handler) override {
    handler_ = std::move(handler);
  }

  void deliver(node_id from, std::span<const std::byte> payload) {
    if (handler_) handler_(datagram{from, payload});
  }

 private:
  friend class sim_network;
  sim_network& net_;
  node_id self_;
  receive_handler handler_;
};

sim_network::sim_network(sim::simulator& sim, std::size_t node_count,
                         link_profile default_profile, rng seed)
    : sim_(sim),
      // Free-list sized by the steady-state working set: every node has a
      // handful of distinct datagrams in flight (ALIVE fan-out shares one
      // buffer across the whole roster), plus headroom for HELLO bursts.
      pool_(node_count * 4 + 64) {
  if (node_count == 0) throw std::invalid_argument("sim_network: node_count == 0");
  endpoints_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    endpoints_.push_back(
        std::make_unique<endpoint_impl>(*this, node_id{static_cast<std::uint32_t>(i)}));
  }
  links_.reserve(node_count * node_count);
  for (std::size_t i = 0; i < node_count * node_count; ++i) {
    links_.emplace_back(default_profile, seed.split());
  }
  alive_.assign(node_count, true);
  traffic_.assign(node_count, traffic_totals{});
}

sim_network::~sim_network() = default;

transport& sim_network::endpoint(node_id node) {
  return *endpoints_.at(node.value());
}

void sim_network::set_node_alive(node_id node, bool alive) {
  alive_.at(node.value()) = alive;
}

void sim_network::set_all_link_profiles(link_profile profile) {
  for (auto& link : links_) link.set_profile(profile);
}

void sim_network::set_link_profile(node_id from, node_id to, link_profile profile) {
  links_.at(link_index(from, to)).set_profile(profile);
}

void sim_network::enable_link_crashes(link_crash_profile profile) {
  if (!profile.enabled) return;
  crash_profile_ = profile;
  crash_anchor_ = sim_.now();
}

void sim_network::force_link_state(node_id from, node_id to, bool up) {
  links_.at(link_index(from, to)).set_up(up);
}

bool sim_network::link_up(node_id from, node_id to) {
  link_model& link = links_.at(link_index(from, to));
  if (crash_profile_.enabled && from != to) {
    link.advance_crashes(crash_profile_, crash_anchor_, sim_.now());
  }
  return link.up();
}

const traffic_totals& sim_network::traffic(node_id node) const {
  return traffic_.at(node.value());
}

void sim_network::reset_traffic() {
  traffic_.assign(traffic_.size(), traffic_totals{});
  dropped_by_links_ = 0;
  dropped_dead_node_ = 0;
  dropped_by_adversary_ = 0;
}

std::size_t sim_network::link_index(node_id from, node_id to) const {
  const std::size_t n = endpoints_.size();
  const std::size_t f = from.value();
  const std::size_t t = to.value();
  assert(f < n && t < n && "sim_network: bad node id");
  return f * n + t;
}

bool sim_network::admit(node_id from, node_id to,
                        std::span<const std::byte> payload, duration& delay) {
  assert(from.value() < alive_.size() && to.value() < alive_.size());
  if (!alive_[from.value()]) return false;  // a dead host cannot transmit
  auto& tx = traffic_[from.value()];
  ++tx.datagrams_sent;
  tx.bytes_sent += payload.size() + wire_overhead_bytes;
  if (tap_) tap_(from, to, payload);

  if (from == to) {
    // Loopback: immediate, lossless (matches kernel loopback behaviour).
    delay = duration{0};
    return true;
  }
  // Adversary verdict before the link draw: a cut/partitioned/flapped-down
  // link behaves like a severed wire, and skipping the base link's transit
  // draw keeps its RNG stream aligned with the fault-free schedule of the
  // surviving traffic.
  if (adversary_ != nullptr && adversary_->should_drop(from, to, sim_.now())) {
    ++dropped_by_adversary_;
    return false;
  }
  link_model& link = links_[link_index(from, to)];
  if (crash_profile_.enabled) {
    link.advance_crashes(crash_profile_, crash_anchor_, sim_.now());
  }
  const auto transit = link.transit();
  if (!transit.has_value()) {
    ++dropped_by_links_;
    return false;
  }
  delay = *transit;
  if (adversary_ != nullptr) delay += adversary_->extra_delay(from, to, payload);
  return true;
}

void sim_network::on_send(node_id from, node_id to,
                          std::span<const std::byte> payload) {
  duration delay{};
  if (!admit(from, to, payload, delay)) return;
  // Copying span path (raw callers): the bytes are only valid during this
  // call, so they move into a pooled buffer for the flight.
  dispatch(from, to, delay, pool_.copy(payload));
}

void sim_network::on_send(node_id from, node_id to, shared_payload payload) {
  duration delay{};
  if (!admit(from, to, payload.bytes(), delay)) return;
  dispatch(from, to, delay, std::move(payload));
}

void sim_network::dispatch(node_id from, node_id to, duration delay,
                           shared_payload payload) {
  if (adversary_ != nullptr && from != to) {
    duration extras[adversary::max_duplicate_copies];
    const std::size_t copies = adversary_->plan_duplicates(extras);
    for (std::size_t i = 0; i < copies; ++i) {
      // Each duplicate holds a reference to the same sealed buffer.
      schedule_delivery(from, to, delay + extras[i], payload);
    }
  }
  schedule_delivery(from, to, delay, std::move(payload));
}

void sim_network::schedule_delivery(node_id from, node_id to, duration delay,
                                    shared_payload payload) {
  sim_.schedule_after(delay,
                      [this, from, to, data = std::move(payload)] {
                        deliver_now(from, to, data);
                      });
}

void sim_network::deliver_now(node_id from, node_id to,
                              const shared_payload& payload) {
  if (!alive_[to.value()]) {
    ++dropped_dead_node_;
    return;
  }
  auto& rx = traffic_[to.value()];
  rx.datagrams_received += 1;
  rx.bytes_received += payload.size() + wire_overhead_bytes;
  if (profiler_ != nullptr) {
    // Host-time cost of the whole receive stack (decode + FD + membership
    // + election reevaluation), labelled by wire kind.
    const auto kind = proto::peek_kind(payload.bytes());
    obs::profiler::scope timed(
        profiler_, kind ? proto::to_string(*kind) : "malformed");
    endpoints_[to.value()]->deliver(from, payload.bytes());
    return;
  }
  endpoints_[to.value()]->deliver(from, payload.bytes());
}

}  // namespace omega::net
