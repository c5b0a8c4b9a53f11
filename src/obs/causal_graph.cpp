#include "obs/causal_graph.hpp"

#include <algorithm>

namespace omega::obs {

namespace {

/// (node, seq) packed as the resolution key — the coordination-free unique
/// name of one trace event (see common/causality.hpp).
std::uint64_t event_key(node_id node, std::uint64_t seq) {
  // seq is per-node and dense; 40 bits (~10^12 events) is far beyond any
  // ring's lifetime, so the packed key cannot collide in practice.
  return (static_cast<std::uint64_t>(node.value()) << 40) ^ seq;
}

/// Kinds excluded from linkage accounting: operational bookkeeping with no
/// causal role in a failover (mirrors sink::potent).
bool causally_inert(event_kind kind) {
  return kind == event_kind::retune ||
         kind == event_kind::unknown_group_drop ||
         kind == event_kind::unknown_peer_drop;
}

}  // namespace

causal_graph causal_graph::build(std::span<const trace_event> events) {
  causal_graph g;
  g.events_.assign(events.begin(), events.end());
  g.cause_.assign(g.events_.size(), -1);
  g.dangling_.assign(g.events_.size(), 0);

  std::unordered_map<std::uint64_t, int> index;
  index.reserve(g.events_.size());
  for (std::size_t i = 0; i < g.events_.size(); ++i) {
    const trace_event& ev = g.events_[i];
    if (ev.node.valid()) index.emplace(event_key(ev.node, ev.seq), static_cast<int>(i));
  }
  for (std::size_t i = 0; i < g.events_.size(); ++i) {
    const cause_id& c = g.events_[i].cause;
    if (!c.valid()) continue;  // root
    auto it = index.find(event_key(c.origin, c.seq));
    if (it == index.end()) {
      // The provoking event was overwritten by ring wraparound (or its
      // ring was never collected): record the evidence gap instead of
      // pretending this is a spontaneous root.
      g.dangling_[i] = 1;
      continue;
    }
    // A cause id must name an *earlier* event of its origin ring; a stamp
    // resolving to the event itself (or a corrupted forward reference on
    // the same node) is dropped as dangling rather than risking cycles.
    if (it->second == static_cast<int>(i)) {
      g.dangling_[i] = 1;
      continue;
    }
    g.cause_[i] = it->second;
  }
  return g;
}

std::optional<time_point> causal_graph::at_on(const trace_event& ev,
                                              timeline tl) const {
  if (tl == timeline::sim) return ev.at;
  if (ev.wall_us < 0) return std::nullopt;
  return time_point{usec(ev.wall_us)};
}

std::vector<char> causal_graph::anchor_victim_evidence(
    node_id victim_node, process_id victim_pid) const {
  // anchored[i]: -1 unknown, 0 no, 1 yes, 2 on the current DFS path (cycle
  // guard — honest stamps cannot cycle, but the graph is built from
  // untrusted ring contents).
  std::vector<char> anchored(events_.size(), -1);
  std::vector<int> stack;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (anchored[i] != -1) continue;
    stack.push_back(static_cast<int>(i));
    while (!stack.empty()) {
      const int v = stack.back();
      if (anchored[v] == 0 || anchored[v] == 1) {
        stack.pop_back();
        continue;
      }
      if (victim_evidence(events_[v], victim_node, victim_pid)) {
        anchored[v] = 1;
        stack.pop_back();
        continue;
      }
      const int parent = cause_[v];
      if (parent < 0) {
        anchored[v] = 0;
        stack.pop_back();
        continue;
      }
      if (anchored[parent] == 0 || anchored[parent] == 1) {
        anchored[v] = anchored[parent];
        stack.pop_back();
        continue;
      }
      if (anchored[parent] == 2) {  // cycle: refuse to anchor through it
        anchored[v] = 0;
        stack.pop_back();
        continue;
      }
      anchored[v] = 2;
      stack.push_back(parent);
    }
  }
  // Resolve any nodes left marked in-path by the revisit pass above.
  for (std::size_t i = 0; i < anchored.size(); ++i) {
    if (anchored[i] == 2) {
      const int parent = cause_[i];
      anchored[i] = parent >= 0 && anchored[parent] == 1 ? 1 : 0;
    }
  }
  return anchored;
}

causal_graph::linkage_report causal_graph::linkage(node_id victim_node,
                                                   process_id victim_pid,
                                                   time_point start,
                                                   time_point end,
                                                   timeline tl) const {
  linkage_report r;
  const std::vector<char> anchored =
      anchor_victim_evidence(victim_node, victim_pid);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const trace_event& ev = events_[i];
    const auto at = at_on(ev, tl);
    if (!at || *at <= start || *at > end) continue;
    if (causally_inert(ev.kind)) continue;
    ++r.considered;
    if (anchored[i] == 1) ++r.linked;
    if (dangling_[i]) ++r.dangling;
    if (victim_evidence(ev, victim_node, victim_pid)) ++r.evidence_roots;
  }
  return r;
}

outage_budget causal_graph::attribute_outage(
    node_id victim_node, process_id victim_pid, time_point start,
    time_point end, std::optional<process_id> resolved_leader,
    timeline tl) const {
  outage_budget b;
  b.victim = victim_node;
  b.start = start;
  b.end = end;
  if (end <= start) return b;

  // Detection: earliest victim evidence in the window, on any node.
  std::optional<time_point> t_detect;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto at = at_on(events_[i], tl);
    if (!at || *at <= start || *at > end) continue;
    if (!victim_evidence(events_[i], victim_node, victim_pid)) continue;
    if (!t_detect || *at < *t_detect) t_detect = *at;
  }
  if (!t_detect) return b;
  b.saw_detection = true;
  b.detection_s = to_seconds(*t_detect - start);

  // Engagement: the earliest survivor engagement the DAG links to the
  // victim evidence — causally certified, not merely co-timed. When no
  // engagement is linked (stamping off, rings wrapped), fall back to the
  // earliest engagement in the window.
  const std::vector<char> anchored =
      anchor_victim_evidence(victim_node, victim_pid);
  std::optional<time_point> t_engage_linked;
  std::optional<time_point> t_engage_any;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto at = at_on(events_[i], tl);
    if (!at || *at < *t_detect || *at > end) continue;
    if (!election_engagement(events_[i], victim_node, victim_pid,
                             resolved_leader)) {
      continue;
    }
    if (!t_engage_any || *at < *t_engage_any) t_engage_any = *at;
    if (anchored[i] == 1 && (!t_engage_linked || *at < *t_engage_linked)) {
      t_engage_linked = *at;
    }
  }
  const std::optional<time_point> t_engage =
      t_engage_linked ? t_engage_linked : t_engage_any;
  if (!t_engage) return b;
  b.saw_engagement = true;
  b.dissemination_s = to_seconds(*t_engage - *t_detect);
  b.election_s = to_seconds(end - *t_engage);
  return b;
}

std::size_t causal_graph::wall_skew_violations() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const int parent = cause_[i];
    if (parent < 0) continue;
    if (events_[i].wall_us < 0 || events_[parent].wall_us < 0) continue;
    if (events_[i].wall_us < events_[parent].wall_us) ++n;
  }
  return n;
}

}  // namespace omega::obs
