// fd_manager property test: a random soup of ALIVEs (current, restarted
// and stale incarnations, random payload subsets), silences, drops and
// group removals/re-adds, checked after every step against a reference
// model of which (group, remote) links the manager monitors and trusts.
// Every link here is unpinned, so a heartbeat sent at s is fresh until
// s + T^U_D whatever interval it announces.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/random.hpp"
#include "fd/fd_manager.hpp"
#include "sim/simulator.hpp"

namespace omega::fd {
namespace {

constexpr std::uint64_t kSeeds = 40;
constexpr int kSteps = 400;
constexpr std::array<node_id, 3> kRemotes{node_id{5}, node_id{6}, node_id{7}};
/// The last group is never registered.
constexpr std::array<group_id, 4> kGroups{group_id{1}, group_id{2},
                                          group_id{3}, group_id{4}};

/// The second group detects within 500 ms, the others within 1 s.
duration detection_time(group_id g) {
  return g == kGroups[1] ? msec(500) : sec(1);
}

/// What the manager should hold. Every remote is heard well within
/// kMonitorGcAfter, so nothing is garbage-collected (FdManager.
/// SilentRemoteIsCollectedWithItsRefinements covers that path).
struct reference_model {
  struct remote {
    incarnation inc = 0;
    /// Monitored groups -> the newest accepted send time + T^U_D.
    std::map<group_id, time_point> fresh_until;
  };
  std::map<node_id, remote> remotes;
  std::set<group_id> registered;

  [[nodiscard]] bool trusted(group_id g, node_id r, time_point now) const {
    auto it = remotes.find(r);
    if (it == remotes.end()) return false;
    auto link = it->second.fresh_until.find(g);
    return link != it->second.fresh_until.end() && now < link->second;
  }

  [[nodiscard]] std::size_t record_count() const {
    std::size_t n = 0;
    for (const auto& [node, r] : remotes) n += r.fresh_until.size();
    return n;
  }

  void on_alive(const proto::alive_msg& msg, time_point now) {
    auto [it, inserted] = remotes.try_emplace(msg.from);
    remote& r = it->second;
    if (inserted) r.inc = msg.inc;
    if (msg.inc < r.inc) return;
    if (msg.inc > r.inc) {
      r.inc = msg.inc;
      r.fresh_until.clear();
    }
    for (const auto& payload : msg.groups) {
      if (!registered.contains(payload.group)) continue;
      time_point& until = r.fresh_until[payload.group];
      const time_point fresh = msg.send_time + detection_time(payload.group);
      if (fresh > now) until = std::max(until, fresh);
    }
  }
};

/// Runs one seed; returns a description of the first divergence, or "".
std::string run_soup(std::uint64_t seed) {
  sim::simulator sim;
  fd_manager fd(sim, sim);
  reference_model model;
  rng r{seed};
  std::ostringstream failure;

  fd.set_transition_handler([&](group_id g, node_id n, bool trusted) {
    // The elector re-reads is_trusted from inside this handler.
    if (fd.is_trusted(g, n) != trusted && failure.str().empty()) {
      failure << "is_trusted(" << g.value() << ", " << n.value()
              << ") inside its own " << (trusted ? "trust" : "suspect")
              << " edge reads the old verdict";
    }
  });
  // A receipt at the origin reads as "never heard": start past it.
  sim.run_until(time_origin + msec(500));
  fd.start();
  for (std::size_t i = 0; i < 3; ++i) {
    const group_id g = kGroups[i];
    fd.add_group(g, qos_spec{.detection_time = detection_time(g)});
    model.registered.insert(g);
  }

  std::map<node_id, incarnation> sender_inc;
  for (node_id n : kRemotes) sender_inc[n] = 1;
  std::map<std::pair<node_id, group_id>, std::uint64_t> seqs;
  constexpr std::array<duration, 3> kEtas{msec(50), msec(125), msec(250)};

  for (int step = 0; step < kSteps; ++step) {
    const double action = r.uniform01();
    std::string what;
    if (action < 0.55) {
      const node_id from = kRemotes[r.uniform_below(kRemotes.size())];
      incarnation inc = sender_inc[from];
      const double kind = r.uniform01();
      if (kind < 0.1) {
        inc = ++sender_inc[from];  // restarted
      } else if (kind < 0.2 && inc > 1) {
        --inc;  // a ghost from the previous life
      }
      proto::alive_msg msg;
      msg.from = from;
      msg.inc = inc;
      msg.send_time =
          sim.now() - msec(static_cast<std::int64_t>(r.uniform_below(600)));
      msg.eta = kEtas[r.uniform_below(kEtas.size())];
      for (group_id g : kGroups) {
        if (!r.bernoulli(0.5)) continue;
        proto::group_payload p;
        p.group = g;
        p.seq = (seqs[{from, g}] += 1 + r.uniform_below(2));
        p.pid = process_id{from.value()};
        msg.groups.push_back(p);
      }
      what = "ALIVE from " + std::to_string(from.value()) + " inc " +
             std::to_string(inc) + " with " +
             std::to_string(msg.groups.size()) + " payloads";
      model.on_alive(msg, sim.now());
      fd.on_alive(msg, sim.now());
    } else if (action < 0.85) {
      const auto ms = static_cast<std::int64_t>(r.uniform_below(1501));
      what = "silence " + std::to_string(ms) + " ms";
      sim.run_until(sim.now() + msec(ms));
    } else if (action < 0.90) {
      what = "silence 3 s";
      sim.run_until(sim.now() + sec(3));
    } else if (action < 0.95) {
      const group_id g = kGroups[r.uniform_below(kGroups.size())];
      const node_id n = kRemotes[r.uniform_below(kRemotes.size())];
      what = "drop(" + std::to_string(g.value()) + ", " +
             std::to_string(n.value()) + ")";
      if (auto it = model.remotes.find(n); it != model.remotes.end()) {
        it->second.fresh_until.erase(g);
      }
      fd.drop(g, n);
    } else {
      const group_id g = kGroups[r.uniform_below(3)];
      if (model.registered.erase(g) > 0) {
        what = "remove_group(" + std::to_string(g.value()) + ")";
        for (auto& [n, rem] : model.remotes) rem.fresh_until.erase(g);
        fd.remove_group(g);
      } else {
        what = "add_group(" + std::to_string(g.value()) + ")";
        model.registered.insert(g);
        fd.add_group(g, qos_spec{.detection_time = detection_time(g)});
      }
    }

    std::ostringstream where;
    where << "seed " << seed << " step " << step << " (" << what << ") at "
          << to_seconds(sim.now() - time_origin) << " s: ";
    if (!failure.str().empty()) return where.str() + failure.str();
    for (node_id n : kRemotes) {
      for (group_id g : kGroups) {
        const bool want = model.trusted(g, n, sim.now());
        if (fd.is_trusted(g, n) != want) {
          return where.str() + "is_trusted(" + std::to_string(g.value()) +
                 ", " + std::to_string(n.value()) + ") is " +
                 (want ? "false" : "true");
        }
      }
    }
    if (fd.monitor_count() != model.record_count()) {
      return where.str() + "monitor_count() is " +
             std::to_string(fd.monitor_count()) + ", the model holds " +
             std::to_string(model.record_count());
    }
  }
  return "";
}

TEST(FdManagerProperties, RandomEventSoupMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_EQ(run_soup(seed), "");
  }
}

}  // namespace
}  // namespace omega::fd
