// Shared fixture for elector unit tests: a hand-cranked elector_context
// with a controllable clock, membership list, trust oracle, and a capture
// of outgoing ACCUSE messages. Its roster version advances on every read,
// so each evaluation re-reads the roster and the trust oracle: tests may
// edit `members` and `trusted` directly between evaluations.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "election/elector.hpp"

namespace omega::election::testing {

class manual_clock final : public clock_source {
 public:
  [[nodiscard]] time_point now() const override { return now_; }
  void advance(duration d) { now_ += d; }
  void set(time_point t) { now_ = t; }

 private:
  time_point now_ = time_origin;
};

struct sent_accusation {
  proto::accuse_msg msg;
  node_id dst;
};

/// Builds contexts and keeps the mutable "world" the elector observes.
class elector_world {
 public:
  manual_clock clock;
  std::vector<membership::member_info> members;
  std::unordered_set<node_id> trusted;
  std::vector<sent_accusation> accusations;
  /// Bumped by add_member/remove_member only, as member_table::version
  /// moves on roster changes only.
  std::uint64_t roster_version = 0;

  elector_context context(process_id self, bool candidate,
                          incarnation inc = 1) {
    elector_context ctx;
    ctx.self_node = node_id{self.value()};
    ctx.self_pid = self;
    ctx.self_inc = inc;
    ctx.group = group_id{1};
    ctx.candidate = candidate;
    ctx.clock = &clock;
    ctx.is_trusted = [this](node_id n) { return trusted.count(n) > 0; };
    ctx.members = [this]() -> const std::vector<membership::member_info>& {
      return members;
    };
    ctx.members_version = [reads = std::uint64_t{0}]() mutable { return ++reads; };
    ctx.send_accuse = [this](const proto::accuse_msg& m, node_id dst) {
      accusations.push_back({m, dst});
    };
    return ctx;
  }

  /// Adds a member hosted on the node with the same numeric id.
  membership::member_info& add_member(process_id pid, bool candidate = true,
                                      incarnation inc = 1) {
    members.push_back({pid, node_id{pid.value()}, inc, candidate, clock.now()});
    trusted.insert(node_id{pid.value()});
    ++roster_version;
    return members.back();
  }

  void remove_member(process_id pid) {
    std::erase_if(members,
                  [&](const membership::member_info& m) { return m.pid == pid; });
    ++roster_version;
  }

  void distrust(process_id pid) { trusted.erase(node_id{pid.value()}); }
  void trust(process_id pid) { trusted.insert(node_id{pid.value()}); }
};

/// Convenience: an ALIVE payload as a peer running the same algorithm would
/// fill it in.
inline proto::group_payload payload_from(process_id pid, time_point acc,
                                         bool candidate = true,
                                         bool competing = true,
                                         std::uint32_t phase = 1) {
  proto::group_payload p;
  p.group = group_id{1};
  p.pid = pid;
  p.candidate = candidate;
  p.competing = competing;
  p.accusation_time = acc;
  p.phase = phase;
  p.local_leader = process_id::invalid();
  p.local_leader_acc = time_point{};
  return p;
}

}  // namespace omega::election::testing
