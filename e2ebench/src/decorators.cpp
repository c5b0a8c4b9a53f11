#include "decorators.hpp"

#include <utility>

#include "proto/wire.hpp"

namespace e2e {

namespace {

constexpr span_name kReceiveSpan[kWireKinds] = {
    span_name::rx_malformed, span_name::rx_alive,     span_name::rx_accuse,
    span_name::rx_hello,     span_name::rx_hello_ack, span_name::rx_leave,
    span_name::rx_rate_request,
};

}  // namespace

std::size_t wire_kind(std::span<const std::byte> bytes) {
  const auto kind = omega::proto::peek_kind(bytes);
  return kind ? static_cast<std::size_t>(*kind) : 0;
}

traced_transport::traced_transport(omega::net::transport& inner,
                                   omega::clock_source& clock, tracer& trace)
    : inner_(inner), clock_(clock), trace_(trace) {}

traced_transport::~traced_transport() { inner_.set_receive_handler({}); }

thread_trace& traced_transport::note_send(std::span<const std::byte> bytes,
                                          std::size_t copies) {
  thread_trace& t = trace_.local();
  const std::size_t k = wire_kind(bytes);
  t.wire.tx_dgrams[k] += copies;
  t.wire.tx_bytes[k] += copies * bytes.size();
  // Sampled on the send side: ACCUSEs go to suspected (usually dead)
  // nodes and would never show up on a receive path.
  auto& samples = t.samples[k];
  if (t.sampling && samples.size() < thread_trace::kSamplesPerKind) {
    samples.emplace_back(bytes.begin(), bytes.end());
  }
  return t;
}

void traced_transport::send(omega::node_id dst,
                            std::span<const std::byte> payload) {
  if (!trace_.local().recording) return inner_.send(dst, payload);
  thread_trace& t = note_send(payload, 1);
  t.begin(span_name::tx);
  inner_.send(dst, payload);
  t.end();
}

void traced_transport::send(omega::node_id dst,
                            omega::net::shared_payload payload) {
  if (!trace_.local().recording) return inner_.send(dst, std::move(payload));
  thread_trace& t = note_send(payload.bytes(), 1);
  t.begin(span_name::tx);
  inner_.send(dst, std::move(payload));
  t.end();
}

void traced_transport::multicast(std::span<const omega::node_id> dsts,
                                 std::span<const std::byte> payload) {
  if (!trace_.local().recording) return inner_.multicast(dsts, payload);
  thread_trace& t = note_send(payload, dsts.size());
  t.begin(span_name::tx);
  inner_.multicast(dsts, payload);
  t.end();
}

void traced_transport::multicast(std::span<const omega::node_id> dsts,
                                 omega::net::shared_payload payload) {
  if (!trace_.local().recording) return inner_.multicast(dsts, std::move(payload));
  thread_trace& t = note_send(payload.bytes(), dsts.size());
  t.begin(span_name::tx);
  inner_.multicast(dsts, std::move(payload));
  t.end();
}

void traced_transport::set_receive_handler(omega::net::receive_handler handler) {
  handler_ = std::move(handler);
  if (!handler_) {
    inner_.set_receive_handler({});
    return;
  }
  inner_.set_receive_handler(
      [this](const omega::net::datagram& d) { on_receive(d); });
}

void traced_transport::on_receive(const omega::net::datagram& dgram) {
  thread_trace& t = trace_.local();
  if (!t.recording) return handler_(dgram);
  const std::size_t k = wire_kind(dgram.payload);
  ++t.wire.rx_dgrams[k];
  if (stream_ != nullptr) {
    stream_->push_back(captured_datagram{
        clock_.now(), {dgram.payload.begin(), dgram.payload.end()}});
  }
  t.begin(kReceiveSpan[k], t.new_id());
  handler_(dgram);
  t.end();
}

omega::timer_id traced_clock::schedule_at(omega::time_point when,
                                          omega::unique_task fn) {
  return loop_.schedule_at(
      when, [this, when, fn = std::move(fn)]() mutable {
        thread_trace& t = trace_.local();
        if (!t.recording) return fn();
        t.timer_late_us.push_back(
            static_cast<std::int32_t>((loop_.now() - when).count()));
        t.begin(span_name::timer, t.new_id());
        fn();
        t.end();
      });
}

omega::timer_id traced_clock::schedule_after(omega::duration after,
                                             omega::unique_task fn) {
  if (after < omega::duration{0}) after = omega::duration{0};
  return schedule_at(loop_.now() + after, std::move(fn));
}

}  // namespace e2e
