#include "obs/forensics.hpp"

namespace omega::obs {

bool victim_evidence(const trace_event& ev, node_id victim_node,
                     process_id victim_pid) {
  switch (ev.kind) {
    case event_kind::suspicion_raised:
      return ev.peer == victim_node;
    case event_kind::accusation_sent:
    case event_kind::accusation_received:
      return ev.subject == victim_pid || ev.peer == victim_node;
    case event_kind::member_evicted:
      return ev.subject == victim_pid;
    default:
      return false;
  }
}

bool election_engagement(const trace_event& ev, node_id victim_node,
                         process_id victim_pid,
                         const std::optional<process_id>& resolved_leader) {
  if (ev.node == victim_node) return false;  // the corpse does not campaign
  switch (ev.kind) {
    case event_kind::promotion:
      return true;
    case event_kind::candidacy_flip:
      return ev.value > 0.5;  // flipping *into* candidacy
    case event_kind::competition_enter:
      return ev.subject != victim_pid;
    case event_kind::leader_change:
      // A survivor locally electing a live replacement engages the race;
      // electing the (stale) victim or going leaderless does not.
      if (!ev.subject.valid() || ev.subject == victim_pid) return false;
      return !resolved_leader || ev.subject == *resolved_leader;
    default:
      return false;
  }
}

}  // namespace omega::obs
