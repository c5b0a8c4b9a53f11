#include "obs/runtime_export.hpp"

#include <string>

#include "runtime/loop_transport.hpp"

namespace omega::obs {

namespace {

label_set with_node(node_id node, label_set extra = {}) {
  extra.emplace_back("node", std::to_string(node.value()));
  return extra;
}

}  // namespace

void export_transport_stats(registry& reg, node_id node,
                            const runtime::transport_net_stats& stats,
                            std::uint64_t queue_depth) {
  auto send_err = [&](std::string_view reason) -> counter& {
    return reg.get_counter("runtime_send_errors_total",
                           with_node(node, {{"reason", std::string(reason)}}));
  };
  send_err("eagain").advance_to(stats.send_err_eagain);
  send_err("enobufs").advance_to(stats.send_err_enobufs);
  send_err("other").advance_to(stats.send_err_other);

  reg.get_counter("runtime_rx_dropped_total",
                  with_node(node, {{"reason", "unknown_peer"}}))
      .advance_to(stats.rx_unknown_peer);
  reg.get_counter("runtime_rx_dropped_total",
                  with_node(node, {{"reason", "truncated"}}))
      .advance_to(stats.rx_truncated);

  reg.get_counter("runtime_send_queue_drops_total", with_node(node))
      .advance_to(stats.send_queue_drops);
  reg.get_gauge("runtime_send_queue_depth", with_node(node))
      .set(static_cast<double>(queue_depth));
  reg.get_gauge("runtime_send_queue_high_watermark", with_node(node))
      .set(static_cast<double>(stats.send_queue_hwm));

  auto dgrams = [&](std::string_view dir) -> counter& {
    return reg.get_counter("runtime_transport_datagrams_total",
                           with_node(node, {{"dir", std::string(dir)}}));
  };
  dgrams("tx").advance_to(stats.datagrams_sent);
  dgrams("rx").advance_to(stats.datagrams_received);
}

void export_transport_stats(registry& reg,
                            const runtime::loop_udp_transport& transport) {
  export_transport_stats(reg, transport.local_node(), transport.stats(),
                         transport.queue_depth());
}

void export_loop_stats(registry& reg, std::uint64_t loop_index,
                       const runtime::loop_stats& stats) {
  const label_set loop_label = {{"loop", std::to_string(loop_index)}};
  auto syscalls = [&](std::string_view op) -> counter& {
    label_set labels = loop_label;
    labels.emplace_back("op", std::string(op));
    return reg.get_counter("runtime_syscalls_total", std::move(labels));
  };
  syscalls("epoll_wait").advance_to(stats.epoll_waits);
  syscalls("eventfd_read").advance_to(stats.eventfd_reads);
  syscalls("sendmmsg").advance_to(stats.sendmmsg_calls);
  syscalls("sendto").advance_to(stats.sendto_calls);
  syscalls("recvmmsg").advance_to(stats.recvmmsg_calls);
  syscalls("recvfrom").advance_to(stats.recvfrom_calls);

  auto dgrams = [&](std::string_view dir) -> counter& {
    label_set labels = loop_label;
    labels.emplace_back("dir", std::string(dir));
    return reg.get_counter("runtime_loop_datagrams_total", std::move(labels));
  };
  dgrams("tx").advance_to(stats.datagrams_sent);
  dgrams("rx").advance_to(stats.datagrams_received);

  reg.get_counter("runtime_loop_iterations_total", loop_label)
      .advance_to(stats.iterations);
}

}  // namespace omega::obs
