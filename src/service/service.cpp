#include "service/service.hpp"

#include <algorithm>
#include <utility>

namespace omega::service {

namespace {
template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;
}  // namespace

leader_election_service::leader_election_service(clock_source& clock,
                                                 timer_service& timers,
                                                 net::transport& transport,
                                                 service_config config)
    : clock_(clock),
      timers_(timers),
      transport_(transport),
      config_(std::move(config)),
      fd_(clock, timers),
      gm_(clock, timers, config_.self, config_.inc, {}),
      rate_(fd::qos_spec{}.detection_time / 4),
      alive_timer_(timers) {
  transport_.set_receive_handler([this](const net::datagram& d) { on_datagram(d); });
  for (const node_id node : config_.roster) {
    if (node != config_.self) roster_peers_.push_back(node);
  }

  if (config_.sink) {
    config_.sink->set_self(config_.self);
    fd_.set_sink(config_.sink);
    gm_.set_sink(config_.sink);
  }

  fd_.set_transition_handler([this](group_id g, node_id node, bool trusted) {
    auto it = groups_.find(g);
    if (it == groups_.end()) return;
    it->second.elector->on_fd_transition(node, trusted);
    reevaluate(g);
  });
  fd_.set_rate_request_fn([this](node_id node, duration eta) {
    send({&node, 1}, proto::rate_request_msg{config_.self, config_.inc, eta});
  });

  gm_.set_broadcast(
      [this](const proto::wire_message& msg) { send(roster_peers_, msg); });
  gm_.set_unicast([this](node_id dst, const proto::wire_message& msg) {
    send({&dst, 1}, msg);
  });
  gm_.set_multicast(
      [this](const std::vector<node_id>& dsts, const proto::wire_message& msg) {
        send(dsts, msg);
      });
  gm_.set_cluster_roster(config_.roster);
  gm_.set_vouch([this](group_id g, const membership::member_info& m) {
    return fd_.is_trusted(g, m.node);
  });
  gm_.set_events(membership::group_maintenance::events{
      .on_member_joined =
          [this](group_id g, const membership::member_info&) { reevaluate(g); },
      .on_member_removed =
          [this](group_id g, const membership::member_info& m) {
            auto it = groups_.find(g);
            if (it == groups_.end()) return;
            it->second.elector->on_member_removed(m);
            if (m.node != config_.self) fd_.drop(g, m.node);
            if (adaptive_) {
              if (m.node != config_.self) {
                adaptive_->on_group_member_dropped(g, m.node);
              }
              // Drop the node's link history only once no group has a
              // member there: a node that merely left one group is still
              // monitored (and may be the binding worst link) elsewhere.
              bool still_member = false;
              for (const auto& [g2, gs2] : groups_) {
                for (const auto& mem : gm_.table(g2).members_view()) {
                  if (mem.node == m.node) {
                    still_member = true;
                    break;
                  }
                }
                if (still_member) break;
              }
              if (!still_member && m.node != config_.self) {
                adaptive_->on_node_dropped(m.node);
              }
            }
            reevaluate(g);
          },
      .on_member_reincarnated = nullptr,
  });

  if (config_.adaptive.mode == adaptive::tuning_mode::adaptive) {
    adaptive_ = std::make_unique<adaptive::engine>(clock_, timers_, fd_,
                                                   config_.adaptive);
    if (config_.sink) adaptive_->set_sink(config_.sink);
    fd_.set_link_observer(
        [this](node_id node, const fd::link_estimate& est, time_point now) {
          adaptive_->on_link_sample(node, est, now);
        });
  }

  fd_.start();
  gm_.start();
  if (adaptive_) adaptive_->start();
}

leader_election_service::~leader_election_service() {
  // A destroyed instance models a crash: silence, not goodbyes.
  transport_.set_receive_handler({});
}

// ---- application API -------------------------------------------------------

bool leader_election_service::register_process(process_id pid) {
  return registered_.try_emplace(pid, true).second;
}

void leader_election_service::unregister_process(process_id pid) {
  std::vector<group_id> joined;
  for (const auto& [g, gs] : groups_) {
    if (gs.local_pid == pid) joined.push_back(g);
  }
  for (group_id g : joined) leave_group(pid, g);
  registered_.erase(pid);
}

election::elector_context leader_election_service::make_context(group_id group,
                                                                process_id pid,
                                                                bool candidate) {
  election::elector_context ctx;
  ctx.self_node = config_.self;
  ctx.self_pid = pid;
  ctx.self_inc = config_.inc;
  ctx.group = group;
  ctx.candidate = candidate;
  ctx.clock = &clock_;
  ctx.is_trusted = [this, group](node_id node) { return fd_.is_trusted(group, node); };
  ctx.members = [this, group]() -> const std::vector<membership::member_info>& {
    return gm_.table(group).members_view();
  };
  ctx.members_version = [this, group] { return gm_.table(group).version(); };
  ctx.send_accuse = [this](const proto::accuse_msg& msg, node_id dst) {
    if (config_.sink) {
      obs::trace_event ev;
      ev.kind = obs::event_kind::accusation_sent;
      ev.at = clock_.now();
      ev.group = msg.group;
      ev.subject = msg.target;
      ev.peer = dst;
      config_.sink->record(ev);
    }
    send({&dst, 1}, msg);
  };
  ctx.sink = config_.sink;
  return ctx;
}

bool leader_election_service::join_group(process_id pid, group_id group,
                                         const join_options& options,
                                         leader_callback on_change) {
  if (registered_.find(pid) == registered_.end()) return false;
  if (groups_.find(group) != groups_.end()) return false;

  fd_.add_group(group, options.qos);
  fd_.set_group_class(group, std::string(adaptive::to_string(options.fd_class)));
  rate_.set_default_eta(std::min(rate_.default_eta(), options.qos.detection_time / 4));

  // Hand the group's operating point to the configured tuning policy.
  switch (config_.adaptive.mode) {
    case adaptive::tuning_mode::continuous:
      break;  // seed behaviour: fd_manager reconfigures per tick
    case adaptive::tuning_mode::frozen:
      fd_.set_params_override(group, fd::cold_start_params(options.qos));
      break;
    case adaptive::tuning_mode::adaptive:
      adaptive_->add_group(group, options.qos, options.fd_class);
      break;
  }

  election::elector_context ctx = make_context(group, pid, options.candidate);

  group_state gs;
  gs.group = group;
  gs.local_pid = pid;
  gs.options = options;
  gs.elector =
      election::make_elector(options.alg.value_or(config_.alg), std::move(ctx));
  gs.last_self_acc = gs.elector->self_accusation_time();
  gs.on_change = std::move(on_change);
  groups_.emplace(group, std::move(gs));

  gm_.local_join(group, pid, options.candidate);  // broadcasts HELLO
  reevaluate(group);
  // Look the group up again: the reevaluation's leader callback may re-enter
  // join_group / leave_group (the hierarchy coordinator promotes from it),
  // and a map insert can rehash iterators away. Element *references*
  // survive rehashing — reevaluate's internal reference is safe — but
  // iterators do not.
  auto post = groups_.find(group);
  if (post != groups_.end() && post->second.was_sending) schedule_alive();
  return true;
}

void leader_election_service::leave_group(process_id pid, group_id group) {
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.local_pid != pid) return;
  gm_.local_leave(group, pid);  // broadcasts LEAVE
  fd_.remove_group(group);
  if (adaptive_) adaptive_->remove_group(group);
  groups_.erase(it);
  // The per-group HELLO accounting row is meaningless once the node no
  // longer participates (and a later unrelated join of the same group id
  // must start from zero).
  stats_.hello_by_group.erase(group);
  // Relax the default heartbeat cadence to the tightest *remaining* group
  // (join_group only ever ratchets it down).
  duration def = fd::qos_spec{}.detection_time / 4;
  for (const auto& [g, gs] : groups_) {
    def = std::min(def, gs.options.qos.detection_time / 4);
  }
  rate_.set_default_eta(def);
  if (groups_.empty()) alive_timer_.cancel();
}

bool leader_election_service::set_candidacy(process_id pid, group_id group,
                                            bool candidate) {
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.local_pid != pid) return false;
  group_state& gs = it->second;
  if (gs.options.candidate == candidate) return true;
  gs.options.candidate = candidate;
  gs.elector->set_candidate(candidate);
  // The promotion's accusation-time reset is an entry baseline, not an
  // accusation event: sync the cache so reevaluate() does not treat it as
  // "our rank just worsened".
  gs.last_self_acc = gs.elector->self_accusation_time();
  gm_.update_local_candidacy(group, candidate);
  if (config_.sink) {
    obs::trace_event ev;
    ev.kind = obs::event_kind::candidacy_flip;
    ev.at = clock_.now();
    ev.group = group;
    ev.subject = pid;
    ev.value = candidate ? 1.0 : 0.0;
    config_.sink->record(ev);
  }
  reevaluate(group);
  return true;
}

std::optional<process_id> leader_election_service::leader(group_id group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.last_leader : std::nullopt;
}

duration leader_election_service::current_eta() const {
  return rate_.effective_eta(clock_.now());
}

const membership::member_table& leader_election_service::members(group_id group) const {
  return gm_.table(group);
}

election::elector* leader_election_service::elector_for(group_id group) {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.elector.get() : nullptr;
}

void leader_election_service::set_leader_observer(leader_callback observer) {
  leader_observer_ = std::move(observer);
}

// ---- inbound dispatch -------------------------------------------------------

void leader_election_service::on_datagram(const net::datagram& dgram) {
  ++stats_.datagrams_received;
  // Decode into the long-lived scratch: handlers take the message by const
  // reference and copy what they keep, so its storage can be recycled for
  // the next datagram (allocation-free once the capacities warm up).
  cause_id inbound;
  if (!proto::decode_into(rx_scratch_, dgram.payload, &inbound)) {
    ++stats_.malformed_received;
    return;
  }
  // Everything this datagram provokes — FD transitions, election moves,
  // eager ALIVEs — is attributed to the sender's wire stamp (or recorded
  // as caused-by-nothing for unstamped version-1 traffic).
  obs::sink::activation scope(config_.sink, inbound);
  std::visit([this](const auto& m) { handle(m); }, rx_scratch_);
}

void leader_election_service::note_unknown_group(group_id group, node_id from) {
  ++stats_.dropped_unknown_group;
  if (config_.sink) {
    obs::trace_event ev;
    ev.kind = obs::event_kind::unknown_group_drop;
    ev.at = clock_.now();
    ev.group = group;
    ev.peer = from;
    config_.sink->record(ev);
  }
}

void leader_election_service::handle(const proto::alive_msg& msg) {
  const time_point now = clock_.now();
  // An ALIVE whose every payload targets groups we never joined (or have
  // already left) is stale traffic racing our LEAVE: account for it instead
  // of silently ignoring the payloads below. The node-level freshness and
  // membership evidence are still consumed — the sender is alive regardless.
  if (!msg.groups.empty()) {
    const bool any_known =
        std::any_of(msg.groups.begin(), msg.groups.end(), [this](const auto& p) {
          return groups_.find(p.group) != groups_.end();
        });
    if (!any_known) note_unknown_group(msg.groups.front().group, msg.from);
  }
  // Membership evidence first (electors pull membership during evaluation),
  // then failure-detector freshness, then election payloads.
  gm_.on_alive(msg, now);
  fd_.on_alive(msg, now);
  for (const auto& payload : msg.groups) {
    auto it = groups_.find(payload.group);
    if (it == groups_.end()) continue;
    const std::pair<incarnation, std::uint64_t> stamp{msg.inc, payload.seq};
    auto [applied, first] = it->second.applied.try_emplace(payload.pid, stamp);
    if (!first) {
      if (stamp <= applied->second) continue;  // overtaken by a newer payload
      applied->second = stamp;
    }
    it->second.elector->on_alive_payload(msg.from, msg.inc, payload);
  }
  for (const auto& payload : msg.groups) {
    if (groups_.find(payload.group) != groups_.end()) reevaluate(payload.group);
  }
}

void leader_election_service::handle(const proto::accuse_msg& msg) {
  auto it = groups_.find(msg.group);
  if (it == groups_.end()) {
    note_unknown_group(msg.group, msg.from);
    return;
  }
  if (it->second.local_pid != msg.target) return;
  if (config_.sink) {
    obs::trace_event ev;
    ev.kind = obs::event_kind::accusation_received;
    ev.at = clock_.now();
    ev.group = msg.group;
    ev.subject = msg.target;
    ev.peer = msg.from;
    config_.sink->record(ev);
  }
  it->second.elector->on_accuse(msg);
  reevaluate(msg.group);
}

void leader_election_service::handle(const proto::hello_msg& msg) {
  gm_.on_hello(msg, clock_.now());
}

void leader_election_service::handle(const proto::hello_ack_msg& msg) {
  gm_.on_hello_ack(msg, clock_.now());
}

void leader_election_service::handle(const proto::leave_msg& msg) {
  if (groups_.find(msg.group) == groups_.end()) {
    note_unknown_group(msg.group, msg.from);
    return;
  }
  gm_.on_leave(msg);
}

void leader_election_service::handle(const proto::rate_request_msg& msg) {
  const time_point now = clock_.now();
  rate_.on_request(msg.from, msg.desired_eta, now);
  // If the new effective rate is faster than the pending tick, pull it in.
  if (!groups_.empty()) schedule_alive();
}

// ---- election plumbing ------------------------------------------------------

void leader_election_service::reevaluate(group_id group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  group_state& gs = it->second;

  const std::optional<process_id> leader = gs.elector->evaluate();
  const bool sending = gs.elector->should_send_alive();

  if (sending != gs.was_sending) {
    gs.was_sending = sending;
    if (sending) {
      // Entering the competition (or joining): announce immediately instead
      // of waiting for the next tick — this is what keeps election time far
      // below detection time.
      send_alive_now();
      schedule_alive();
    } else {
      // Omega_l graceful withdrawal: one final heartbeat with
      // competing=false so peers drop us without waiting for a timeout.
      send_alive_now(group);
    }
  } else if (sending &&
             gs.elector->self_accusation_time() != gs.last_self_acc) {
    // Our rank just worsened (we were accused): push the new accusation
    // time to peers immediately so the group converges on the successor in
    // one message delay instead of waiting out the heartbeat period.
    send_alive_now();
    schedule_alive();
  }
  gs.last_self_acc = gs.elector->self_accusation_time();

  if (leader != gs.last_leader) {
    gs.last_leader = leader;
    if (config_.sink) {
      obs::trace_event ev;
      ev.kind = obs::event_kind::leader_change;
      ev.at = clock_.now();
      ev.group = group;
      ev.subject = leader.value_or(process_id::invalid());
      config_.sink->record(ev);
    }
    if (gs.on_change) gs.on_change(group, leader);
    if (leader_observer_) leader_observer_(group, leader);
  }
}

// ---- heartbeat engine -------------------------------------------------------

void leader_election_service::schedule_alive() {
  if (groups_.empty()) return;
  // Anchor the cadence to the last actual send: re-scheduling (e.g. after a
  // rate request) must never push the next heartbeat further out, or a
  // steady stream of control traffic could silence the heartbeats entirely.
  const time_point now = clock_.now();
  const duration eta = rate_.effective_eta(now);
  time_point due = last_alive_sent_ + eta;
  // Never arm in the past or at the current instant: a suppressed send (e.g.
  // an Omega_l follower outside the competition, or a node with no peers yet)
  // leaves last_alive_sent_ stale, and re-arming "at now" would make the
  // timer fire repeatedly at the same simulated instant. Nor past the tick
  // already pending: a faster rate request arriving once its interval has
  // elapsed must not postpone that tick, and a stream of them would.
  if (due <= now) {
    due = alive_due_ > now ? std::min(now + eta, alive_due_) : now + eta;
  }
  alive_due_ = due;
  alive_timer_.arm_at(due, [this] { alive_tick(); });
}

void leader_election_service::alive_tick() {
  // Periodic heartbeats are spontaneous: open a causal root so nothing
  // stale gets stamped into them.
  obs::sink::activation scope(config_.sink);
  send_alive_now();
  schedule_alive();
}

void leader_election_service::send_alive_now(std::optional<group_id> extra_group) {
  // Each sending group's payload goes to that group's table only, and each
  // destination gets one ALIVE with the payloads of every group it shares:
  // the destinations that share their groups share one encoding.
  alive_payloads_.clear();
  alive_plan_.clear();
  for (auto& [g, gs] : groups_) {
    const bool include = gs.elector->should_send_alive() ||
                         (extra_group.has_value() && *extra_group == g);
    if (!include) continue;
    const auto index = static_cast<std::uint32_t>(alive_payloads_.size());
    proto::group_payload& payload = alive_payloads_.emplace_back();
    gs.elector->fill_payload(payload);
    bool carried = false;
    for (const auto& m : gm_.table(g).members_view()) {
      if (m.node == config_.self) continue;
      alive_plan_.give(m.node, index);
      carried = true;
    }
    if (carried) {
      payload.seq = ++payload_seq_[g];
      gm_.note_heartbeat(g);
    }
  }
  if (alive_plan_.empty()) return;

  last_alive_sent_ = clock_.now();
  ++stats_.alive_sent;

  auto& msg = std::get<proto::alive_msg>(alive_scratch_);
  msg.from = config_.self;
  msg.inc = config_.inc;
  msg.send_time = clock_.now();
  msg.eta = rate_.effective_eta(clock_.now());
  // One send per payload set: the 500-node roster costs one encode per
  // set, zero copies. Eager ALIVEs fired from within an activation
  // (competition entry, rank worsening) carry the provoking event's stamp;
  // periodic ticks are roots and go out as plain version-1 datagrams.
  alive_plan_.for_each_set([this, &msg](std::span<const std::uint32_t> payloads,
                                        std::span<const node_id> dsts) {
    msg.groups.clear();
    for (const std::uint32_t i : payloads) msg.groups.push_back(alive_payloads_[i]);
    send(dsts, alive_scratch_);
  });
}

// ---- outbound path ----------------------------------------------------------

void leader_election_service::count_sent(const proto::wire_message& msg,
                                         std::size_t destinations) {
  std::visit(overloaded{
                 [](const proto::alive_msg&) { /* one per tick, in send_alive_now */ },
                 [this](const proto::accuse_msg&) { ++stats_.accuse_sent; },
                 [this, destinations](const proto::hello_msg& hello) {
                   ++stats_.hello_sent;
                   for (const auto& entry : hello.entries) {
                     auto& per_group = stats_.hello_by_group[entry.group];
                     ++per_group.hellos;
                     per_group.destinations += destinations;
                   }
                 },
                 [this](const proto::hello_ack_msg&) { ++stats_.hello_ack_sent; },
                 [this](const proto::leave_msg&) { ++stats_.leave_sent; },
                 [this](const proto::rate_request_msg&) { ++stats_.rate_request_sent; },
             },
             msg);
}

void leader_election_service::send(std::span<const node_id> dsts,
                                   const proto::wire_message& msg) {
  if (dsts.empty()) return;
  count_sent(msg, dsts.size());
  // The cause the running activation works for: invalid, so a version-1
  // envelope, unless the sink's causal plane is on. RATE_REQ is FD rate
  // plumbing, causally inert, and never stamped.
  const cause_id cause =
      config_.sink != nullptr && !std::holds_alternative<proto::rate_request_msg>(msg)
          ? config_.sink->current_cause()
          : cause_id{};
  transport_.multicast(dsts, proto::encode_shared(msg, transport_.pool(), cause));
}

}  // namespace omega::service
