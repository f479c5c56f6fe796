// Lowers interconnect traffic onto the event simulator's link-level queueing -- the
// ground truth the analytic Interconnect costs are validated against.
//
// Every flow of a traffic matrix becomes a chain of kLink nodes along its route
// (store-and-forward), split into chunks so a multi-hop flow pipelines across its hops
// instead of serializing whole messages. The simulated makespan is then a *schedule* --
// FIFO queueing on every link, per-hop wire latency -- whose critical path the analytic
// congestion/dilation bound must stay below (it is a lower bound by construction) and
// should stay close to (the achievability the differential harness
// tests/test_interconnect_diff.cc asserts, with the tolerance documented there).
#ifndef TOFU_INTERCONNECT_SIM_BRIDGE_H_
#define TOFU_INTERCONNECT_SIM_BRIDGE_H_

#include "tofu/interconnect/interconnect.h"
#include "tofu/partition/plan.h"
#include "tofu/sim/event_sim.h"

namespace tofu {

// Appends one traffic matrix's flows to `graph` (whose link_bandwidths must be the
// interconnect's). Every flow's first hop additionally depends on `barrier` (< 0 for
// none); returns the delivery nodes (each flow's last hop), e.g. to anchor the next
// round's barrier.
std::vector<std::int32_t> AppendTrafficToSim(const Interconnect& net,
                                             const TrafficMatrix& traffic,
                                             std::int32_t barrier, SimGraph* graph);

// One traffic matrix delivered in full, all flows concurrent: the simulated
// counterpart of Interconnect::TransferSeconds.
double SimTransferSeconds(const Interconnect& net, const TrafficMatrix& traffic);

// Simulated critical-path time of a plan's communication: each step's weighted bytes
// spread over the same group-local all-to-all pattern the analytic step estimate
// prices (Interconnect::StepTraffic), steps separated by barriers (a step's shuffles
// consume the previous step's outputs). This is the number that gates a plan when the
// analytic estimate is in doubt -- Session reports it as
// PartitionResponse::simulated_comm_seconds whenever the topology carries an
// interconnect.
double SimPlanCommSeconds(const Interconnect& net, const PartitionPlan& plan);

}  // namespace tofu

#endif  // TOFU_INTERCONNECT_SIM_BRIDGE_H_
