// Umbrella header for the omega-election library.
//
// Pulls in the entire public API: the service facade, the election
// algorithms, both substrates (deterministic simulator and the event-loop
// UDP runtime), and the experiment harness. Fine-grained includes are under
// the individual module directories; this header is for applications that
// just want the service.
//
//   #include "omega.hpp"
//
//   omega::sim::simulator sim;
//   omega::net::sim_network net(sim, 5, omega::net::link_profile::lan(),
//                               omega::rng{42});
//   omega::service::leader_election_service svc(sim, sim,
//                                               net.endpoint(omega::node_id{0}),
//                                               cfg);
#pragma once

#include "common/ids.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "election/elector.hpp"
#include "fd/qos.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "metrics/group_metrics.hpp"
#include "net/link_model.hpp"
#include "net/sim_network.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
