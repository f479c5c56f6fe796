// Liveness-aware residency analysis for a partitioned graph. The search, the session's
// feasibility verdict, the schedule repair pass, the hybrid stage peaks, and the
// simulator all share one buffer model and one peak sweep:
//
//   - model state (inputs, weights, optimizer history -- every producer-less tensor)
//     stays resident for the whole iteration;
//   - a produced tensor's buffer is allocated when its producer runs and freed after
//     its last consumer (a produced tensor nobody reads lives to the end);
//   - in-place outputs (OpNode::inplace_input) extend their input's buffer instead of
//     allocating a new one, so an alias chain is one buffer rooted at its first tensor.
//
// Restricted by an op mask, the same model gives a pipeline stage's figures.
#ifndef TOFU_MEMORY_LIVENESS_H_
#define TOFU_MEMORY_LIVENESS_H_

#include <cstdint>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/partition/plan.h"

namespace tofu {

// The per-buffer facts the peak sweep, the schedule repair pass, and the replay
// simulator all need. Indexed by TensorId; non-root entries carry zero bytes and are
// accounted under their chain root.
struct LivenessAnalysis {
  // Alias-chain root per tensor (buffer[t] == t for roots).
  std::vector<TensorId> buffer;
  // Shard bytes per buffer root (aliases share storage; max over chain members).
  std::vector<std::int64_t> buf_bytes;
  // Op that allocates the buffer, or -1 for resident model state (producer-less root).
  std::vector<int> alloc_at;
  // Last op that reads any alias (num_ops = lives to the end of the iteration).
  std::vector<int> free_at;
  int num_ops = 0;

  bool IsRoot(TensorId t) const { return buffer[static_cast<size_t>(t)] == t; }
  // Resident model state: never freed, charged for the whole iteration.
  bool IsModelState(TensorId root) const {
    return alloc_at[static_cast<size_t>(root)] < 0;
  }
};

// Alias-chain root of every tensor (root[t] == t for roots): an in-place output
// (OpNode::inplace_input) shares its input's buffer. Op ids are a topological order, so
// one forward pass resolves every chain.
std::vector<TensorId> AliasRoots(const Graph& graph);

// Resolves alias chains and computes every buffer's bytes and lifetime under `plan`'s
// final tilings. Op ids are a topological order, so one forward pass suffices.
//
// `op_in_stage` (indexed by OpId; empty = the whole graph) restricts the analysis to
// one pipeline stage's ops: a buffer counts only if some alias is produced by an
// in-stage op, or is read by one. Producer-less state and incoming boundary activations
// (off-stage producer, in-stage consumer) are resident for the stage's whole pass; a
// buffer produced in-stage but read only off-stage is pinned until the end (its
// hand-off). Buffers no stage worker materializes keep zero bytes.
LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan,
                                 const std::vector<char>& op_in_stage = {});

// The program-order peak sweep every peak figure comes from (LivenessPeakShardBytes,
// ScheduledPeakShardBytes in memory/schedule.h, PlanPeakShardBytes). A root with
// alloc_at < 0 is charged for the whole iteration; any other root from its allocating
// op until its free_at op completes, so outputs coexist with still-live inputs.
// `transient[k]` (empty = none) adds bytes charged only while op k runs.
std::int64_t SweepPeakBytes(const LivenessAnalysis& live,
                            const std::vector<std::int64_t>& transient = {});

// Per-worker residency upper bound: every tensor's final shard resident at once, no
// liveness or buffer-reuse credit. Schedule-independent, hence conservative.
std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan);

// Liveness-aware per-worker peak for a program-order schedule with everything
// resident: SweepPeakBytes over AnalyzeLiveness, which is ScheduledPeakShardBytes with
// an empty schedule. Always <= AllResidentShardBytes. Ignores any schedule or pipeline
// the plan carries; callers outside memory/ want PlanPeakShardBytes.
std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan);

// THE per-worker memory verdict of a plan, the one figure the session's budget check,
// the hybrid search's feasibility test and its stage peaks, and the recursion's
// lightest-cuts check all compare against a budget:
//   - a pipeline plan: the max of its stages' peak_bytes;
//   - a plan carrying a MemorySchedule: the schedule's scheduled_peak_bytes (what the
//     repair pass proved fits);
//   - otherwise the liveness sweep, restricted to `op_in_stage` when given (a stage's
//     inner plan, see AnalyzeLiveness).
std::int64_t PlanPeakShardBytes(const Graph& graph, const PartitionPlan& plan,
                                const std::vector<char>& op_in_stage = {});

}  // namespace tofu

#endif  // TOFU_MEMORY_LIVENESS_H_
