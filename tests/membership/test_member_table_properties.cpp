// member_table property test: a random soup of first-hand and snapshot
// upserts (current, newer and older incarnations), removals (stale and
// current) and eviction sweeps with one vouched pid, checked after every
// step against a std::map reference model of the documented semantics:
// the roster in pid order, each lookup, the size, the content version and
// each call's result, evictions in pid order included.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "membership/member_table.hpp"

namespace omega::membership {
namespace {

constexpr std::uint64_t kSeeds = 40;
constexpr int kSteps = 600;
constexpr std::uint32_t kPids = 24;

struct reference_model {
  std::map<process_id, member_info> members;
  std::uint64_t version = 0;

  upsert_result upsert(process_id pid, node_id node, incarnation inc,
                       bool candidate, time_point now, evidence source,
                       member_info& prior) {
    const bool first_hand = source == evidence::first_hand;
    const time_point claim = first_hand && candidate ? now : time_point::min();
    const member_info fresh{pid, node, inc, candidate, now, claim};
    auto it = members.find(pid);
    if (it == members.end()) {
      members.emplace(pid, fresh);
      ++version;
      return upsert_result::joined;
    }
    member_info& m = it->second;
    prior = m;
    if (inc < m.inc) return upsert_result::stale_ignored;
    if (inc > m.inc) {
      m = fresh;
      ++version;
      return upsert_result::reincarnated;
    }
    m.last_refresh = std::max(m.last_refresh, now);
    if (first_hand) m.last_claim = claim;
    if (m.candidate == candidate && m.node == node) return upsert_result::unchanged;
    m.candidate = candidate;
    m.node = node;
    ++version;
    return upsert_result::updated;
  }

  std::optional<member_info> remove(process_id pid, incarnation inc) {
    auto it = members.find(pid);
    if (it == members.end() || inc < it->second.inc) return std::nullopt;
    const member_info removed = it->second;
    members.erase(it);
    ++version;
    return removed;
  }

  std::vector<member_info> evict_stale(time_point cutoff, process_id vouched) {
    std::vector<member_info> evicted;
    for (auto it = members.begin(); it != members.end();) {
      if (it->second.last_refresh < cutoff && it->first != vouched) {
        evicted.push_back(it->second);
        it = members.erase(it);
      } else {
        ++it;
      }
    }
    if (!evicted.empty()) ++version;
    return evicted;
  }
};

/// Each entry as pid@inc/node, c(andidate) or l(istener), the refresh time
/// in seconds and a '*' while a candidacy claim stands.
std::string describe(const std::vector<member_info>& members) {
  std::ostringstream out;
  out << "[";
  for (const member_info& m : members) {
    out << " " << m.pid.value() << "@" << m.inc << "/n" << m.node.value()
        << (m.candidate ? "c" : "l") << "/"
        << to_seconds(m.last_refresh)
        << (m.last_claim != time_point::min() ? "*" : "");
  }
  out << " ]";
  return out.str();
}

/// Runs one seed; returns a description of the first divergence, or "".
std::string run_soup(std::uint64_t seed) {
  member_table table;
  reference_model model;
  rng r{seed};
  time_point now = time_origin;
  // The newest incarnation each pid has used, so a removed pid can rejoin
  // at it, above it or below it.
  std::map<process_id, incarnation> newest;

  for (int step = 0; step < kSteps; ++step) {
    now += msec(static_cast<std::int64_t>(r.uniform_below(2000)));
    const process_id pid{static_cast<std::uint32_t>(r.uniform_below(kPids))};
    incarnation& top = newest.try_emplace(pid, 1).first->second;
    const double action = r.uniform01();
    const double age = r.uniform01();
    std::ostringstream what;
    std::string mismatch;
    if (action < 0.6) {
      incarnation inc = top;
      if (age < 0.15) {
        inc = ++top;
      } else if (age < 0.3 && top > 1) {
        --inc;
      }
      // Mostly the pid's own node; sometimes it moves hosts.
      const node_id node{pid.value() + (r.bernoulli(0.1) ? 100 : 0)};
      const bool candidate = r.bernoulli(0.5);
      const evidence source =
          r.bernoulli(0.3) ? evidence::snapshot : evidence::first_hand;
      // Evidence may arrive late: its time can precede the last refresh.
      const time_point at =
          now - msec(static_cast<std::int64_t>(r.uniform_below(3000)));
      what << (source == evidence::snapshot ? "snapshot" : "first-hand")
           << " upsert(" << pid.value() << ", n" << node.value() << ", inc "
           << inc << ", " << (candidate ? "candidate" : "listener") << ")";
      member_info prior{};
      member_info want_prior{};
      const upsert_result got =
          table.upsert(pid, node, inc, candidate, at, source, &prior);
      const upsert_result want =
          model.upsert(pid, node, inc, candidate, at, source, want_prior);
      if (got != want) {
        mismatch = "result " + std::to_string(static_cast<int>(got)) +
                   ", the model's " + std::to_string(static_cast<int>(want));
      } else if (got != upsert_result::joined && prior != want_prior) {
        mismatch = "prior entry differs";
      }
    } else if (action < 0.8) {
      const incarnation inc = age < 0.3 && top > 1 ? top - 1 : top;
      what << "remove(" << pid.value() << ", inc " << inc << ")";
      const auto got = table.remove(pid, inc);
      const auto want = model.remove(pid, inc);
      if (got != want) mismatch = "removed entry differs";
    } else {
      const time_point cutoff =
          now - sec(static_cast<std::int64_t>(1 + r.uniform_below(10)));
      what << "evict_stale(now - " << to_seconds(now - cutoff)
           << " s, vouching " << pid.value() << ")";
      const auto got = table.evict_stale(
          cutoff, [pid](const member_info& m) { return m.pid == pid; });
      const auto want = model.evict_stale(cutoff, pid);
      if (got != want) {
        mismatch = "evicted " + describe(got) + ", the model " + describe(want);
      }
    }

    std::vector<member_info> roster;
    for (const auto& [p, m] : model.members) roster.push_back(m);
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " (" + what.str() + "): ";
    if (!mismatch.empty()) return where + mismatch;
    if (table.members_view() != roster) {
      return where + "members_view() is " + describe(table.members_view()) +
             ", the model " + describe(roster);
    }
    if (table.size() != roster.size() || table.empty() != roster.empty()) {
      return where + "size() is " + std::to_string(table.size()) +
             ", the model holds " + std::to_string(roster.size());
    }
    if (table.version() != model.version) {
      return where + "version() is " + std::to_string(table.version()) +
             ", the model's " + std::to_string(model.version);
    }
    for (std::uint32_t p = 0; p < kPids; ++p) {
      const member_info* got = table.find(process_id{p});
      const auto want = model.members.find(process_id{p});
      const bool found = want != model.members.end();
      if ((got != nullptr) != found || (found && *got != want->second)) {
        return where + "find(" + std::to_string(p) + ") differs";
      }
    }
  }
  return "";
}

TEST(MemberTableProperties, RandomOpsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_EQ(run_soup(seed), "");
  }
}

}  // namespace
}  // namespace omega::membership
