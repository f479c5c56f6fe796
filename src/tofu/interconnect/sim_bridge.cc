#include "tofu/interconnect/sim_bridge.h"

#include <algorithm>

#include "tofu/sim/cost_model.h"
#include "tofu/util/logging.h"

namespace tofu {

namespace {

// Chunks per hop of a multi-hop flow (single-hop flows are never split: one node is
// already exact), capped per flow. More chunks tighten the pipeline toward the analytic
// bound at the cost of more events; 4 bounds the store-and-forward overhead at
// (h-1)/(4h) < 25%.
constexpr int kChunksPerHop = 4;
constexpr int kMaxChunks = 64;

SimGraph EmptyTrafficGraph(const Interconnect& net) {
  SimGraph graph;
  graph.num_devices = 1;  // link nodes carry no device memory; one device suffices
  graph.link_bandwidths = net.links().bandwidth;
  return graph;
}

// Zero-duration joint node depending on `deps`; steps serialize through these.
std::int32_t AddBarrier(SimGraph* graph, std::vector<std::int32_t> deps) {
  SimNode barrier;
  barrier.kind = SimNode::Kind::kCompute;
  barrier.duration_s = 0.0;
  barrier.deps = std::move(deps);
  barrier.tag = "barrier";
  return graph->Add(std::move(barrier));
}

double Makespan(const SimGraph& graph) {
  SimOptions options;
  options.unlimited_memory = true;
  return RunSim(graph, K80Cluster(), options).makespan_s;
}

}  // namespace

std::vector<std::int32_t> AppendTrafficToSim(const Interconnect& net,
                                             const TrafficMatrix& traffic,
                                             std::int32_t barrier, SimGraph* graph) {
  TOFU_CHECK_EQ(traffic.num_workers, net.num_workers());
  TOFU_CHECK_EQ(graph->link_bandwidths.size(), net.links().bandwidth.size());
  const double latency = net.links().hop_latency_s;
  const int n = traffic.num_workers;
  std::vector<std::int32_t> deliveries;
  // The simulator drains same-time-ready transmissions in insertion order, so the
  // emission order here IS the schedule each port follows. Two staggers keep the
  // makespan measuring the topology instead of a self-inflicted hotspot: each source's
  // destination list is rotated by the source index (concurrent sources fan out to
  // different destinations first -- the classic shifted all-to-all), and chunks are
  // emitted round-robin across a source's flows rather than flow by flow (so no
  // ingress port receives one source's entire payload as a burst).
  struct FlowState {
    const std::vector<int>* route;
    double chunk_bytes;
    int chunks;
    int emitted = 0;
  };
  std::vector<int> dsts;
  std::vector<FlowState> flows;
  for (int s = 0; s < n; ++s) {
    dsts.clear();
    for (int d = 0; d < n; ++d) {
      if (d != s && traffic.At(s, d) > 0.0) {
        dsts.push_back(d);
      }
    }
    if (dsts.empty()) {
      continue;
    }
    std::rotate(dsts.begin(),
                dsts.begin() + static_cast<int>(s % static_cast<int>(dsts.size())),
                dsts.end());
    flows.clear();
    for (int d : dsts) {
      const std::vector<int>& route = net.Route(s, d);
      const int hops = static_cast<int>(route.size());
      const int chunks =
          hops <= 1 ? 1 : std::min(kMaxChunks, kChunksPerHop * hops);
      flows.push_back(
          {&route, traffic.At(s, d) / static_cast<double>(chunks), chunks});
    }
    bool remaining = true;
    while (remaining) {
      remaining = false;
      for (FlowState& flow : flows) {
        if (flow.emitted >= flow.chunks) {
          continue;
        }
        std::int32_t prev_hop = barrier;
        for (int link : *flow.route) {
          SimNode node;
          node.kind = SimNode::Kind::kLink;
          node.link = link;
          node.comm_bytes = flow.chunk_bytes;
          node.post_delay_s = latency;
          // The only dependency is the store-and-forward one: a chunk transmits on
          // hop k once its own hop k-1 copy is delivered (transmission end + wire
          // latency). Ordering among a flow's chunks on one link needs no explicit
          // edge -- the link is a serial resource, and a chunk's arrival at every hop
          // trails its predecessor's by construction. An edge here would also charge
          // the wire latency between back-to-back transmissions, which a pipelined
          // link does not pay.
          if (prev_hop >= 0) {
            node.deps.push_back(prev_hop);
          }
          prev_hop = graph->Add(std::move(node));
        }
        if (++flow.emitted == flow.chunks) {
          deliveries.push_back(prev_hop);
        } else {
          remaining = true;
        }
      }
    }
  }
  return deliveries;
}

double SimTransferSeconds(const Interconnect& net, const TrafficMatrix& traffic) {
  SimGraph graph = EmptyTrafficGraph(net);
  AppendTrafficToSim(net, traffic, /*barrier=*/-1, &graph);
  if (graph.nodes.empty()) {
    return 0.0;
  }
  return Makespan(graph);
}

double SimPlanCommSeconds(const Interconnect& net, const PartitionPlan& plan) {
  if (plan.steps.empty()) {
    return 0.0;
  }
  // Per-step factors come from the steps themselves (every built-in algorithm's
  // composition multiplies out to num_workers); weighted bytes are the ones every
  // builder records per step (StepFold::Append).
  TOFU_CHECK_EQ(plan.weighted_step_costs.size(), plan.steps.size());
  std::vector<int> factors;
  factors.reserve(plan.steps.size());
  for (const BasicPlan& step : plan.steps) {
    factors.push_back(step.ways);
  }
  SimGraph graph = EmptyTrafficGraph(net);
  std::int32_t barrier = -1;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const double weighted = plan.weighted_step_costs[i];
    if (weighted <= 0.0) {
      continue;
    }
    std::vector<std::int32_t> deliveries = AppendTrafficToSim(
        net, net.StepTraffic(factors, i, weighted), barrier, &graph);
    if (!deliveries.empty()) {
      barrier = AddBarrier(&graph, std::move(deliveries));
    }
  }
  if (graph.nodes.empty()) {
    return 0.0;
  }
  return Makespan(graph);
}

}  // namespace tofu
