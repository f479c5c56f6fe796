// Lowering: turns a dataflow graph (+ partition plan) into a SimGraph for the event
// simulator. Implements the §6 optimizations as toggles so their effect can be ablated:
//
//   * multifetch        -- fuse each operator's remote reads into one gather (off: one
//                          transfer per peer plus an assembly kernel and its intermediate
//                          buffers, the naive split/copy/concat path);
//   * add_control_deps  -- re-create the original sequential dependencies per worker so
//                          the memory planner's buffer reuse survives partitioning;
//   * delay_fetch       -- keep remote fetches close to their consumer instead of issuing
//                          them as soon as inputs are ready (TensorFlow's trick adopted
//                          by Tofu);
//   * inplace_grad_agg  -- MXNet-style in-place gradient accumulation (off: the
//                          TensorFlow behaviour blamed for Table 3's gap).
#ifndef TOFU_SIM_LOWERING_H_
#define TOFU_SIM_LOWERING_H_

#include <functional>

#include "tofu/graph/graph.h"
#include "tofu/partition/partitioned_graph.h"
#include "tofu/partition/plan.h"
#include "tofu/sim/event_sim.h"

namespace tofu {

struct LowerOptions {
  bool multifetch = true;
  bool add_control_deps = true;
  bool delay_fetch = true;
  bool inplace_grad_agg = true;
};

// The shard-kernel cost oracle: the one recipe that prices an operator's kernel. The
// lowerings below, the hybrid stage costs (pipeline/stage_cost.h) and the memory repair
// pass's recompute pricing (memory/repair.h) all call it, so the search's predictions
// and the simulator charge compute identically.
//
// An op's full (unsharded) work: its kernel class, registry flops at full shapes, and
// the bytes it moves (output plus every input).
struct OpWork {
  OpClass op_class = OpClass::kBandwidth;
  double flops = 0.0;
  double bytes = 0.0;
};
OpWork FullOpWork(const Graph& graph, const OpNode& op);

// The extent driving kernel efficiency for an output of shape `out_shape`. GEMM-class ops starve
// on their row count; batched GEMMs (batch_matmul, linear3d -- any rank >= 3 kMatmul
// output) keep the device busy across the whole batch of GEMMs, so every dimension but
// the innermost counts as rows. Other classes (conv, bandwidth) key off the leading
// (batch) dimension.
double EfficiencyRows(const OpNode& op, const Shape& out_shape);

// Kernel seconds of one worker's `work_fraction` share of `work` at efficiency extent
// `rows` (clamped to >= 1). The only caller of KernelSeconds.
double ShardKernelSeconds(const GpuSpec& gpu, const OpWork& work, double work_fraction,
                          double rows);

// Lowers `graph` partitioned per `plan` onto plan.num_workers devices. A trivial plan
// (num_workers == 1) lowers the original single-device execution, which is what the
// Ideal / SmallBatch / Swapping baselines run on.
SimGraph LowerPartitioned(const Graph& graph, const PartitionPlan& plan,
                          const ClusterSpec& cluster, double samples_per_iteration,
                          const LowerOptions& options = {});

// Lowers with operator placement: `device_of` assigns every op to a device (the §7
// Op-Placement baseline assigns RNN layers round-robin); cross-device tensor uses become
// peer-to-peer transfers.
SimGraph LowerPlacement(const Graph& graph, int num_devices,
                        const std::function<int(const OpNode&)>& device_of,
                        const ClusterSpec& cluster, double samples_per_iteration,
                        const LowerOptions& options = {});

}  // namespace tofu

#endif  // TOFU_SIM_LOWERING_H_
