#include "replay.hpp"

#include <variant>

#include "election/elector.hpp"
#include "fd/fd_manager.hpp"
#include "membership/group_maintenance.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

namespace e2e {

namespace {

/// Calls per timed batch of the codec replays: enough that the two clock
/// reads around a batch vanish next to the work.
constexpr std::size_t kCodecCalls = 20000;

double mean_ns(std::int64_t total_ns, std::size_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(total_ns) / static_cast<double>(calls);
}

struct codec_costs {
  /// Mean ns per call, per wire kind; negative where no sample exists.
  std::array<double, kWireKinds> decode_ns;
  std::array<double, kWireKinds> encode_ns;
};

codec_costs time_codec(
    const std::array<std::vector<std::vector<std::byte>>, kWireKinds>& samples) {
  codec_costs out;
  out.decode_ns.fill(-1.0);
  out.encode_ns.fill(-1.0);
  omega::net::payload_pool pool;
  for (std::size_t k = 1; k < kWireKinds; ++k) {
    const auto& kind_samples = samples[k];
    if (kind_samples.empty()) continue;
    const std::size_t rounds = kCodecCalls / kind_samples.size() + 1;

    omega::proto::wire_message scratch;
    std::size_t calls = 0;
    std::size_t rejected = 0;
    std::int64_t start = steady_ns();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& bytes : kind_samples) {
        if (!omega::proto::decode_into(scratch, bytes)) ++rejected;
        ++calls;
      }
    }
    if (rejected == 0) out.decode_ns[k] = mean_ns(steady_ns() - start, calls);

    std::vector<omega::proto::wire_message> messages;
    for (const auto& bytes : kind_samples) {
      if (auto msg = omega::proto::decode(bytes)) messages.push_back(*msg);
    }
    if (messages.empty()) continue;
    calls = 0;
    std::size_t encoded = 0;
    start = steady_ns();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& msg : messages) {
        encoded += omega::proto::encode_shared(msg, pool).bytes().size();
        ++calls;
      }
    }
    if (encoded > 0) out.encode_ns[k] = mean_ns(steady_ns() - start, calls);
  }
  return out;
}

}  // namespace

void set_proto_metrics(
    metric_set& out,
    const std::array<std::vector<std::vector<std::byte>>, kWireKinds>& samples,
    const std::array<std::uint64_t, kWireKinds>& dgrams,
    const std::array<std::uint64_t, kWireKinds>& bytes) {
  const codec_costs codec = time_codec(samples);
  for (const auto& [k, name] : kReportedKinds) {
    if (codec.decode_ns[k] >= 0) {
      out.set(std::string("proto.decode_ns.") + name, codec.decode_ns[k]);
    }
    if ((k == 1 || k == 3) && codec.encode_ns[k] >= 0) {
      out.set(std::string("proto.encode_ns.") + name, codec.encode_ns[k]);
    }
    if (k != 2 && dgrams[k] > 0) {
      out.set(std::string("proto.bytes.") + name,
              static_cast<double>(bytes[k]) / static_cast<double>(dgrams[k]));
    }
  }
}

layer_costs replay_stream(const std::vector<captured_datagram>& stream,
                          omega::node_id self, omega::process_id pid,
                          omega::group_id group, const omega::fd::qos_spec& qos,
                          std::size_t min_alives) {
  std::vector<std::pair<omega::time_point, omega::proto::alive_msg>> alives;
  for (const auto& c : stream) {
    auto msg = omega::proto::decode(c.bytes);
    if (msg && std::holds_alternative<omega::proto::alive_msg>(*msg)) {
      alives.emplace_back(c.at, std::get<omega::proto::alive_msg>(*msg));
    }
  }
  layer_costs out;
  if (alives.empty()) return out;

  std::int64_t fd_ns = 0;
  std::int64_t gm_ns = 0;
  std::int64_t el_ns = 0;
  while (out.alives < min_alives) {
    omega::sim::simulator sim;
    omega::fd::fd_manager fd(sim, sim);
    fd.add_group(group, qos);
    omega::membership::group_maintenance gm(
        sim, sim, self, 1, omega::membership::group_maintenance::options{});
    gm.set_broadcast([](const omega::proto::wire_message&) {});
    gm.set_unicast([](omega::node_id, const omega::proto::wire_message&) {});
    gm.set_vouch([&fd](omega::group_id g, const omega::membership::member_info& m) {
      return fd.is_trusted(g, m.node);
    });
    gm.local_join(group, pid, true);

    omega::election::elector_context ctx;
    ctx.self_node = self;
    ctx.self_pid = pid;
    ctx.self_inc = 1;
    ctx.group = group;
    ctx.candidate = true;
    ctx.clock = &sim;
    ctx.is_trusted = [&fd, group](omega::node_id n) {
      return fd.is_trusted(group, n);
    };
    ctx.members = [&gm, group]() -> const std::vector<omega::membership::member_info>& {
      return gm.table(group).members_view();
    };
    ctx.members_version = [&gm, group] { return gm.table(group).version(); };
    ctx.send_accuse = [](const omega::proto::accuse_msg&, omega::node_id) {};
    auto elector =
        omega::election::make_elector(omega::election::algorithm::omega_lc, ctx);
    fd.set_transition_handler([&elector](omega::group_id, omega::node_id n,
                                         bool trusted) {
      elector->on_fd_transition(n, trusted);
    });

    for (const auto& [at, msg] : alives) {
      sim.run_until(at);
      const omega::time_point now = sim.now();
      const std::int64_t t0 = steady_ns();
      gm.on_alive(msg, now);
      const std::int64_t t1 = steady_ns();
      fd.on_alive(msg, now);
      const std::int64_t t2 = steady_ns();
      for (const auto& payload : msg.groups) {
        if (payload.group == group) {
          elector->on_alive_payload(msg.from, msg.inc, payload);
        }
      }
      static_cast<void>(elector->evaluate());
      const std::int64_t t3 = steady_ns();
      gm_ns += t1 - t0;
      fd_ns += t2 - t1;
      el_ns += t3 - t2;
      ++out.alives;
    }
  }
  out.fd_on_alive_ns = mean_ns(fd_ns, out.alives);
  out.membership_on_alive_ns = mean_ns(gm_ns, out.alives);
  out.election_ns = mean_ns(el_ns, out.alives);
  return out;
}

}  // namespace e2e
