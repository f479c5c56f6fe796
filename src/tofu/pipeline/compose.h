// Hybrid parallelism (ROADMAP item 3): a pipeline-stage partitioner composed with the
// intra-stage recursive Tofu DP.
//
// HybridPartition cuts the coarsened graph's macro-group sequence into S contiguous
// stages with a PipeDream-style bottleneck DP (balance per-micro-batch stage time,
// price boundary activation transfers, exclude ranges whose model state cannot fit the
// per-worker budget), assigns stage i the contiguous worker range
// [i * W/S, (i+1) * W/S), and partitions each stage's operators across its workers with
// RecursivePartitionCoarse on the stage-filtered coarse graph -- the same budget-aware
// search pure Tofu runs, seeing the SUFFIX of the topology's per-step bandwidths (the
// pipeline replaces the coarsest, slowest splits; the intra-stage search keeps the
// fast local links). Candidates at every feasible divisor stage count compete on the
// analytic 1F1B makespan (pipeline/pipeline_plan.h); S = 1 competes as the plain
// recursive plan, so on topologies where pipelining does not pay the result is
// byte-identical to pure Tofu (and carries no PipelinePlan at all).
#ifndef TOFU_PIPELINE_COMPOSE_H_
#define TOFU_PIPELINE_COMPOSE_H_

#include <cstdint>
#include <memory>

#include "tofu/interconnect/interconnect.h"
#include "tofu/partition/recursive.h"
#include "tofu/pipeline/pipeline_plan.h"
#include "tofu/sim/cost_model.h"

namespace tofu {

// Knobs of the hybrid search, separate from PartitionOptions so pure plans' cache keys
// and fingerprints are untouched. The session passes its topology's interconnect,
// coarsest bandwidth and cluster.
struct HybridOptions {
  // Prices stage-boundary transfers between adjacent worker ranges when set (uniform
  // spread traffic matrix through the link graph, contention included). Null prices
  // them at fallback_bandwidth (or the coarsest step bandwidth when options carry one).
  std::shared_ptr<const Interconnect> interconnect;
  double fallback_bandwidth = 21e9;
  // Compute-side cost model for stage balancing (kernel times of each op's shard).
  // Defaults match K80Cluster().
  ClusterSpec cluster;
};

// Searches hybrid pipeline x Tofu plans for `graph` over `num_workers` workers. The
// returned plan either carries a PipelinePlan (plan.pipeline != nullptr, plan.steps
// empty, per-stage inner plans inside) or IS the pure recursive plan (S = 1 won;
// byte-identical to RecursivePartition under the same options). `options` is the same
// struct the pure search takes: step_bandwidths price intra-stage splits (stages see
// its suffix), memory_budget_bytes constrains both the stage DP's state filter and the
// inner searches, and dp.step_table_cache is shared across stages. Every candidate is
// judged against the budget by PlanPeakShardBytes (memory/liveness.h). Only the S = 1
// candidate applies options.memory_policy, and it pays its schedule's analytic
// overhead in the time it competes on; stage searches run under MemoryPolicy::kNone,
// so stage plans are always pure (no schedule, no pipeline).
PartitionPlan HybridPartition(const Graph& graph, int num_workers,
                              const PartitionOptions& options = {},
                              const HybridOptions& hybrid = {});

}  // namespace tofu

#endif  // TOFU_PIPELINE_COMPOSE_H_
