// Bench-side decorators handed to each live service in the traced run.
//
// They sit between an unmodified `leader_election_service` and its loop:
// `traced_transport` wraps the service's `loop_udp_transport` and
// `traced_clock` wraps the `event_loop` as its clock and timer service.
// Together they time every receive upcall, timer callback and send
// enqueue as spans, count datagrams per wire kind, stamp timer lateness
// and capture datagram bytes for the replays. Untraced runs hand the
// service the loop and socket directly.
#pragma once

#include <span>
#include <vector>

#include "common/executor.hpp"
#include "net/transport.hpp"
#include "runtime/event_loop.hpp"
#include "spans.hpp"

namespace e2e {

/// One inbound datagram captured for a replay, stamped with the receiving
/// loop's clock (the clock the sender's ALIVE timestamps come from).
struct captured_datagram {
  omega::time_point at{};
  std::vector<std::byte> bytes;
};

/// Wire-kind index of a datagram (see kWireKinds).
std::size_t wire_kind(std::span<const std::byte> bytes);

class traced_transport final : public omega::net::transport {
 public:
  traced_transport(omega::net::transport& inner, omega::clock_source& clock,
                   tracer& trace);
  ~traced_transport() override;

  traced_transport(const traced_transport&) = delete;
  traced_transport& operator=(const traced_transport&) = delete;

  void send(omega::node_id dst, std::span<const std::byte> payload) override;
  void send(omega::node_id dst, omega::net::shared_payload payload) override;
  void multicast(std::span<const omega::node_id> dsts,
                 std::span<const std::byte> payload) override;
  void multicast(std::span<const omega::node_id> dsts,
                 omega::net::shared_payload payload) override;

  [[nodiscard]] omega::net::payload_pool& pool() override {
    return inner_.pool();
  }
  [[nodiscard]] omega::node_id local_node() const override {
    return inner_.local_node();
  }
  void set_receive_handler(omega::net::receive_handler handler) override;

  /// Appends every inbound datagram to `sink` until called with nullptr.
  void capture_stream(std::vector<captured_datagram>* sink) { stream_ = sink; }

 private:
  void on_receive(const omega::net::datagram& dgram);
  /// Counts (and samples) `copies` datagrams of `bytes` about to be sent;
  /// returns the calling thread's trace.
  thread_trace& note_send(std::span<const std::byte> bytes, std::size_t copies);

  omega::net::transport& inner_;
  omega::clock_source& clock_;
  tracer& trace_;
  omega::net::receive_handler handler_;
  std::vector<captured_datagram>* stream_ = nullptr;
};

class traced_clock final : public omega::clock_source,
                           public omega::timer_service {
 public:
  traced_clock(omega::runtime::event_loop& loop, tracer& trace)
      : loop_(loop), trace_(trace) {}

  [[nodiscard]] omega::time_point now() const override { return loop_.now(); }

  omega::timer_id schedule_at(omega::time_point when,
                              omega::unique_task fn) override;
  omega::timer_id schedule_after(omega::duration after,
                                 omega::unique_task fn) override;
  void cancel(omega::timer_id id) override { loop_.cancel(id); }

 private:
  omega::runtime::event_loop& loop_;
  tracer& trace_;
};

}  // namespace e2e
