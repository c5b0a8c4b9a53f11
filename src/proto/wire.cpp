#include "proto/wire.hpp"

#include <limits>

namespace omega::proto {

namespace {

// Hard cap on repeated-element counts: a datagram cannot meaningfully carry
// more, and the cap stops malformed length fields from causing huge
// allocations in the parser.
constexpr std::size_t max_repeated = 4096;

void encode_body(byte_writer& w, const alive_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.inc);
  w.write_time(m.send_time);
  w.write_duration(m.eta);
  w.write_u16(static_cast<std::uint16_t>(m.groups.size()));
  for (const auto& g : m.groups) {
    w.write_id(g.group);
    w.write_u64(g.seq);
    w.write_id(g.pid);
    w.write_bool(g.candidate);
    w.write_bool(g.competing);
    w.write_time(g.accusation_time);
    w.write_u32(g.phase);
    w.write_id(g.local_leader);
    w.write_time(g.local_leader_acc);
  }
}

bool decode_body(byte_reader& r, alive_msg& m) {
  m.from = r.read_id<node_id>();
  m.inc = r.read_u32();
  m.send_time = r.read_time();
  m.eta = r.read_duration();
  const std::size_t n = r.read_u16();
  if (n > max_repeated) return false;
  m.groups.clear();
  m.groups.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_payload g;
    g.group = r.read_id<group_id>();
    g.seq = r.read_u64();
    g.pid = r.read_id<process_id>();
    g.candidate = r.read_bool();
    g.competing = r.read_bool();
    g.accusation_time = r.read_time();
    g.phase = r.read_u32();
    g.local_leader = r.read_id<process_id>();
    g.local_leader_acc = r.read_time();
    m.groups.push_back(g);
  }
  return r.exhausted();
}

void encode_body(byte_writer& w, const accuse_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.from_inc);
  w.write_id(m.group);
  w.write_id(m.target);
  w.write_u32(m.target_inc);
  w.write_u32(m.phase);
  w.write_time(m.when);
}

bool decode_body(byte_reader& r, accuse_msg& m) {
  m.from = r.read_id<node_id>();
  m.from_inc = r.read_u32();
  m.group = r.read_id<group_id>();
  m.target = r.read_id<process_id>();
  m.target_inc = r.read_u32();
  m.phase = r.read_u32();
  m.when = r.read_time();
  return r.exhausted();
}

void encode_body(byte_writer& w, const hello_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.inc);
  w.write_bool(m.reply_requested);
  w.write_u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.write_id(e.group);
    w.write_id(e.pid);
    w.write_bool(e.candidate);
  }
}

bool decode_body(byte_reader& r, hello_msg& m) {
  m.from = r.read_id<node_id>();
  m.inc = r.read_u32();
  m.reply_requested = r.read_bool();
  const std::size_t n = r.read_u16();
  if (n > max_repeated) return false;
  m.entries.clear();
  m.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    hello_msg::entry e;
    e.group = r.read_id<group_id>();
    e.pid = r.read_id<process_id>();
    e.candidate = r.read_bool();
    m.entries.push_back(e);
  }
  return r.exhausted();
}

void encode_body(byte_writer& w, const hello_ack_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.inc);
  w.write_u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.write_id(e.group);
    w.write_id(e.pid);
    w.write_id(e.node);
    w.write_u32(e.inc);
    w.write_bool(e.candidate);
  }
}

bool decode_body(byte_reader& r, hello_ack_msg& m) {
  m.from = r.read_id<node_id>();
  m.inc = r.read_u32();
  const std::size_t n = r.read_u16();
  if (n > max_repeated) return false;
  m.entries.clear();
  m.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    hello_ack_msg::entry e;
    e.group = r.read_id<group_id>();
    e.pid = r.read_id<process_id>();
    e.node = r.read_id<node_id>();
    e.inc = r.read_u32();
    e.candidate = r.read_bool();
    m.entries.push_back(e);
  }
  return r.exhausted();
}

void encode_body(byte_writer& w, const leave_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.inc);
  w.write_id(m.group);
  w.write_id(m.pid);
}

bool decode_body(byte_reader& r, leave_msg& m) {
  m.from = r.read_id<node_id>();
  m.inc = r.read_u32();
  m.group = r.read_id<group_id>();
  m.pid = r.read_id<process_id>();
  return r.exhausted();
}

void encode_body(byte_writer& w, const rate_request_msg& m) {
  w.write_id(m.from);
  w.write_u32(m.inc);
  w.write_duration(m.desired_eta);
}

bool decode_body(byte_reader& r, rate_request_msg& m) {
  m.from = r.read_id<node_id>();
  m.inc = r.read_u32();
  m.desired_eta = r.read_duration();
  return r.exhausted();
}

// The shared envelope prefix of both encode paths: version 1 when no
// cause is attached, version 2 with the 16-byte stamp otherwise.
void write_envelope(byte_writer& w, const wire_message& msg, cause_id cause) {
  if (cause.valid()) {
    w.write_u8(protocol_version_stamped);
    w.write_u8(static_cast<std::uint8_t>(kind_of(msg)));
    w.write_id(cause.origin);
    w.write_u32(cause.inc);
    w.write_u64(cause.seq);
  } else {
    w.write_u8(protocol_version);
    w.write_u8(static_cast<std::uint8_t>(kind_of(msg)));
  }
}

}  // namespace

msg_kind kind_of(const wire_message& msg) {
  struct visitor {
    msg_kind operator()(const alive_msg&) const { return msg_kind::alive; }
    msg_kind operator()(const accuse_msg&) const { return msg_kind::accuse; }
    msg_kind operator()(const hello_msg&) const { return msg_kind::hello; }
    msg_kind operator()(const hello_ack_msg&) const { return msg_kind::hello_ack; }
    msg_kind operator()(const leave_msg&) const { return msg_kind::leave; }
    msg_kind operator()(const rate_request_msg&) const { return msg_kind::rate_request; }
  };
  return std::visit(visitor{}, msg);
}

std::string_view to_string(msg_kind kind) {
  switch (kind) {
    case msg_kind::alive: return "alive";
    case msg_kind::accuse: return "accuse";
    case msg_kind::hello: return "hello";
    case msg_kind::hello_ack: return "hello_ack";
    case msg_kind::leave: return "leave";
    case msg_kind::rate_request: return "rate_request";
  }
  return "unknown";
}

std::vector<std::byte> encode(const wire_message& msg, cause_id cause) {
  byte_writer w;
  write_envelope(w, msg, cause);
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
  return w.take();
}

net::shared_payload encode_shared(const wire_message& msg,
                                  net::payload_pool& pool, cause_id cause) {
  byte_writer w(pool.checkout());
  write_envelope(w, msg, cause);
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
  return pool.seal(w.take());
}

bool decode_into(wire_message& out, std::span<const std::byte> bytes,
                 cause_id* cause) {
  byte_reader r(bytes);
  const std::uint8_t version = r.read_u8();
  const std::uint8_t type = r.read_u8();
  if (cause != nullptr) *cause = cause_id{};
  if (!r.ok() ||
      (version != protocol_version && version != protocol_version_stamped)) {
    return false;
  }
  if (version == protocol_version_stamped) {
    cause_id stamp;
    stamp.origin = r.read_id<node_id>();
    stamp.inc = r.read_u32();
    stamp.seq = r.read_u64();
    if (!r.ok()) return false;
    if (cause != nullptr) *cause = stamp;
  }
  // Decode into the alternative `out` already holds when the kind matches
  // (the steady-state case: a stream of ALIVEs into the same scratch), so
  // the repeated-field vectors keep their capacity across datagrams.
  const auto into = [&out, &r](auto tag) {
    using T = decltype(tag);
    T* slot = std::get_if<T>(&out);
    if (slot == nullptr) slot = &out.emplace<T>();
    return decode_body(r, *slot);
  };
  switch (static_cast<msg_kind>(type)) {
    case msg_kind::alive:
      return into(alive_msg{});
    case msg_kind::accuse:
      return into(accuse_msg{});
    case msg_kind::hello:
      return into(hello_msg{});
    case msg_kind::hello_ack:
      return into(hello_ack_msg{});
    case msg_kind::leave:
      return into(leave_msg{});
    case msg_kind::rate_request:
      return into(rate_request_msg{});
  }
  return false;
}

std::optional<wire_message> decode(std::span<const std::byte> bytes,
                                   cause_id* cause) {
  wire_message out;
  if (!decode_into(out, bytes, cause)) return std::nullopt;
  return out;
}

std::optional<msg_kind> peek_kind(std::span<const std::byte> bytes) {
  byte_reader r(bytes);
  const std::uint8_t version = r.read_u8();
  const std::uint8_t type = r.read_u8();
  if (!r.ok() ||
      (version != protocol_version && version != protocol_version_stamped)) {
    return std::nullopt;
  }
  // Same exhaustive switch as decode(): a new message type added there
  // without a case here trips -Wswitch instead of silently classifying
  // as malformed.
  switch (static_cast<msg_kind>(type)) {
    case msg_kind::alive:
    case msg_kind::accuse:
    case msg_kind::hello:
    case msg_kind::hello_ack:
    case msg_kind::leave:
    case msg_kind::rate_request:
      return static_cast<msg_kind>(type);
  }
  return std::nullopt;
}

node_id sender_of(const wire_message& msg) {
  return std::visit([](const auto& m) { return m.from; }, msg);
}

incarnation incarnation_of(const wire_message& msg) {
  return std::visit(
      [](const auto& m) -> incarnation {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>, accuse_msg>) {
          return m.from_inc;
        } else {
          return m.inc;
        }
      },
      msg);
}

}  // namespace omega::proto
