// Stage-level cost accounting for the hybrid pipeline partitioner (pipeline/compose.h).
//
// The stage DP cuts the coarsened graph's macro-group sequence (program order) into
// contiguous stages. To price a candidate cut it needs, per macro group: forward and
// backward kernel time of one micro-batch's shard of the group's operators, the
// activation bytes that would cross each candidate boundary (both directions -- the
// backward pass returns activation gradients), and the model-state bytes a stage would
// own. All three are precomputed once per (graph, coarse graph, cluster) and queried in
// O(1) per range, so the DP over all (stage count, boundary) candidates stays cheap.
//
// Kernel time comes from the shard-kernel oracle in sim/lowering.h (FullOpWork,
// EfficiencyRows, ShardKernelSeconds), the same recipe the event simulator charges, so
// the stage estimate and the simulator price compute identically. The only liberty is
// that rows are scaled by the micro-batch split alone -- the intra-stage partition's cut
// dimension is unknown until the inner search runs, and applying the same optimism to
// every candidate keeps the DP's ranking fair.
#ifndef TOFU_PIPELINE_STAGE_COST_H_
#define TOFU_PIPELINE_STAGE_COST_H_

#include <cstdint>
#include <vector>

#include "tofu/partition/coarsen.h"
#include "tofu/partition/plan.h"
#include "tofu/sim/lowering.h"

namespace tofu {

// Macro-group index of every operator (coarsen.cc places each op in exactly one group,
// through a unit or as an element-wise rider).
std::vector<int> OpGroupIndex(const Graph& graph, const CoarseGraph& coarse);

// The coarse graph restricted to groups [first_group, last_group]: slots and the
// tensor->slot map stay GLOBAL (slot ids in the DP index the full graph's tensors), but
// units are filtered and renumbered to the stage's members so the inner recursive DP
// never enumerates strategies for off-stage operators.
CoarseGraph StageCoarse(const CoarseGraph& full, int first_group, int last_group);

// 1 for ops whose macro group lies in [first_group, last_group], else 0. The mask the
// stage-restricted memory accounting (AnalyzeLiveness in memory/liveness.h) consumes.
std::vector<char> StageOpMask(const Graph& graph, const CoarseGraph& coarse,
                              int first_group, int last_group);

class StageCostModel {
 public:
  StageCostModel(const Graph& graph, const CoarseGraph& coarse, ClusterSpec cluster);

  int num_groups() const { return num_groups_; }

  // Per-group, per-micro-batch kernel seconds with the batch split into micro_batches
  // pieces and every op's work split across `workers` (forward ops in *fwd, backward /
  // update / gradient-aggregation ops in *bwd). O(num_ops); call once per candidate
  // (workers, micro_batches) pair and prefix-sum the result.
  void PerGroupPassSeconds(int workers, int micro_batches, std::vector<double>* fwd,
                           std::vector<double>* bwd) const;

  // Full-batch activation bytes crossing the boundary AFTER group `cut_after`:
  // forward = produced in a group <= cut_after, consumed in a later one (counted on
  // every boundary between producer and last consumer -- store-and-forward relay
  // through intermediate stages); backward = the mirror image for gradients flowing to
  // earlier groups. Model state (params, optimizer history, param gradients) is
  // excluded: it never moves between stages.
  double ForwardCrossingBytes(int cut_after) const;
  double BackwardCrossingBytes(int cut_after) const;

  // Model-state bytes (params + optimizer state + parameter gradients) owned by groups
  // [first, last]. Full (unsharded) bytes; the stage DP divides by the stage's worker
  // count for its optimistic feasibility filter.
  std::int64_t StateBytes(int first, int last) const;

 private:
  struct OpCost {
    int group = 0;
    bool backward = false;  // backward / update / grad-agg pass
    OpWork work;        // full batch, whole op
    double rows = 0.0;  // EfficiencyRows of the full output shape
  };

  int num_groups_ = 0;
  ClusterSpec cluster_;
  std::vector<OpCost> ops_;
  // Indexed by cut position (after group c); entry num_groups-1 is 0 by construction.
  std::vector<double> fwd_cross_;
  std::vector<double> bwd_cross_;
  // state_prefix_[g+1] - state_prefix_[first] = StateBytes(first, g).
  std::vector<std::int64_t> state_prefix_;
};

// Stage-restricted all-resident upper bound: every buffer the stage's workers
// materialize, at once (the sum over AnalyzeLiveness with the stage mask). The stage's
// peak is PlanPeakShardBytes with the same mask (memory/liveness.h).
std::int64_t StageAllResidentShardBytes(const Graph& graph, const PartitionPlan& plan,
                                        const std::vector<char>& op_in_stage);

}  // namespace tofu

#endif  // TOFU_PIPELINE_STAGE_COST_H_
