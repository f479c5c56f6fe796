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
LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan);

// The program-order peak sweep every peak figure comes from (LivenessPeakShardBytes,
// ScheduledPeakShardBytes in memory/schedule.h, the stage-restricted peaks of
// pipeline/stage_cost.h). A root with alloc_at < 0 is charged for the whole iteration;
// any other root from its allocating op until its free_at op completes, so outputs
// coexist with still-live inputs. `transient[k]` (empty = none) adds bytes charged only
// while op k runs.
std::int64_t SweepPeakBytes(const LivenessAnalysis& live,
                            const std::vector<std::int64_t>& transient = {});

// Per-worker residency upper bound: every tensor's final shard resident at once, no
// liveness or buffer-reuse credit. Schedule-independent, hence conservative.
std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan);

// Liveness-aware per-worker peak for a program-order schedule with everything
// resident: SweepPeakBytes over AnalyzeLiveness, which is ScheduledPeakShardBytes with
// an empty schedule. Always <= AllResidentShardBytes; this is what the session's budget
// check and feasibility verdict use.
std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan);

}  // namespace tofu

#endif  // TOFU_MEMORY_LIVENESS_H_
