// Partition plan types: the output of every search algorithm and the input to lowering,
// reporting, and simulation.
//
// A plan is a sequence of *basic* steps (paper §5.2 / appendix A.1): step i splits every
// tensor along at most one dimension into `ways` parts across `ways` worker groups. The
// composition of all steps gives each tensor's final tiling (e.g. batch:2 x channel:4 over
// 8 workers) and each operator's per-step partition-n-reduce strategy.
#ifndef TOFU_PARTITION_PLAN_H_
#define TOFU_PARTITION_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/partition/search_stats.h"

namespace tofu {

// Defined in pipeline/pipeline_plan.h. A PartitionPlan optionally carries one (hybrid
// pipeline x Tofu plans); pure plans leave it null and serialize unchanged.
struct PipelinePlan;

// Defined in memory/schedule.h. A PartitionPlan optionally carries one (per-tensor
// residency decisions: resident / recompute / host-swap, with priced overhead) when
// the memory repair pass had to trade time for memory; plans that fit their budget
// outright leave it null and serialize unchanged.
struct MemorySchedule;

// Cut value for a tensor that is stored replicated at a step (small tensors and rank-0
// scalars only; every substantial tensor is partitioned, as in the paper).
inline constexpr int kReplicated = -1;

// Strategy index meaning "replicated execution": every worker in the group runs the whole
// operator (used when no partition-n-reduce strategy applies, e.g. scalar ops).
inline constexpr int kReplicatedExec = -1;

// One recursive step: for `ways` worker groups, each tensor's storage cut (dimension index
// or kReplicated) and each operator's strategy (index into the op's discovered strategy
// list, or kReplicatedExec).
struct BasicPlan {
  int ways = 2;
  std::vector<int> tensor_cut;   // indexed by TensorId
  std::vector<int> op_strategy;  // indexed by OpId
  // Communication bytes this step incurs *within one worker group* of the previous level.
  double comm_bytes = 0.0;
  // comm_bytes over the bandwidth of the link this step crosses (priced by
  // StepFold::Append); 0 when the step was searched without a topology.
  double comm_seconds = 0.0;
  // Resident bytes ONE worker group of this step stores under the chosen cuts (every
  // tensor's shard at this step's granularity, summed). The last step's figure is the
  // per-worker all-resident bound the memory-constrained search enforces.
  double peak_shard_bytes = 0.0;
};

struct PartitionPlan {
  int num_workers = 1;
  std::vector<int> step_factors;  // k = k1 * k2 * ... * km, ki non-increasing
  std::vector<BasicPlan> steps;

  // Total plan cost: sum_i (#groups at step i) * steps[i].comm_bytes (appendix Eq. 3).
  double total_comm_bytes = 0.0;
  // Per-step weighted costs (#groups * step cost), for Theorem-2 monotonicity checks.
  std::vector<double> weighted_step_costs;
  // Topology-weighted estimates: weighted_step_costs[i] divided by the bandwidth of the
  // link step i crosses (PartitionOptions::step_bandwidths). Empty / 0 when the plan was
  // searched without a topology.
  std::vector<double> step_seconds;
  double estimated_comm_seconds = 0.0;
  // Aggregate search effort across all steps (zero for greedy baselines that run no
  // DP); lets benchmarks and tests assert on how hard the search worked, not just on
  // what it found.
  SearchStats search_stats;
  // Per-worker resident-byte budget the plan was searched under (0 = unconstrained).
  std::int64_t memory_budget_bytes = 0;
  // False when the search could not satisfy memory_budget_bytes under its all-resident
  // model at any searched configuration; the plan is then the lightest one found (best
  // effort). The session's authoritative verdict uses the liveness-aware peak, which
  // can still fit -- see PlanPeakShardBytes in memory/liveness.h.
  bool memory_feasible = true;
  // Hybrid pipeline decomposition (kHybrid only; null for every pure plan). When set,
  // `steps` is empty and the per-stage inner plans live in the stages; plan_io writes
  // the tofu.plan.v3 schema. Shared, immutable: plans are copied around by the session
  // cache and the stages can be large.
  std::shared_ptr<const PipelinePlan> pipeline;
  // Memory residency schedule attached by the repair pass (memory/repair.h) when the
  // budget was infeasible under full residency: which buffers to recompute or host-swap
  // and at what priced overhead. Null for plans that fit outright; when set, plan_io
  // writes the tofu.plan.v4 schema and the session's budget verdict uses the schedule's
  // reduced peak. Shared, immutable, like `pipeline`.
  std::shared_ptr<const MemorySchedule> memory_schedule;

  // Per-dimension split factors of a tensor after all steps (product over steps).
  std::vector<int> TensorSplits(const Graph& graph, TensorId t) const;
  // The shard shape one worker stores (ceil division).
  Shape ShardShape(const Graph& graph, TensorId t) const;
  // Shard bytes for one worker.
  std::int64_t ShardBytes(const Graph& graph, TensorId t) const;
  // Human-readable tiling, e.g. "d0:2 d2:4" or "replicated".
  std::string DescribeTiling(const Graph& graph, TensorId t) const;
};

// Factorizes the worker count into non-increasing factors (prime factorization, largest
// first), per §5.2's handling of non-power-of-two device counts.
std::vector<int> FactorizeWorkers(int num_workers);

// Shard-byte accounting (ShardBytesForCut and friends) lives in memory/bytes.h; a
// plan's memory verdict and the all-resident bound (PlanPeakShardBytes,
// AllResidentShardBytes) live in memory/liveness.h.

}  // namespace tofu

#endif  // TOFU_PARTITION_PLAN_H_
