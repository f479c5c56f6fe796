// MemorySchedule: the per-buffer residency decisions the repair pass attaches to a
// plan whose budget is infeasible under full residency (paper §1's motivation --
// fitting models too large for one device -- pushed past pure partitioning).
//
// Three residency classes, decided per liveness buffer root (memory/liveness.h):
//
//   kResident   -- default: the buffer obeys plain liveness (allocated at its
//                  producer, freed after its last consumer; model state all along).
//   kRecompute  -- the buffer is dropped after each use and its producer re-run right
//                  before the next consumer; it is only materialized while an op
//                  touches it. Priced as one extra shard-kernel run of the producer
//                  (single-level recomputation: the producer's own inputs are assumed
//                  materialized, the standard checkpointing assumption).
//   kSwap       -- the buffer is copied out to host memory after its producer (or at
//                  iteration start for model state) and copied back in before its
//                  consumers; it is only device-resident while an op touches it.
//                  Priced as one swap-out plus one swap-in over the host link.
//
// The schedule's analytic overhead is max(swap_seconds, recompute_seconds): swaps ride
// the host link while recomputation rides the compute stream, so the two overlap. The
// event-driven replay (memory/sim_replay.h) validates analytic <= sim <= 2x analytic.
#ifndef TOFU_MEMORY_SCHEDULE_H_
#define TOFU_MEMORY_SCHEDULE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/memory/liveness.h"
#include "tofu/partition/plan.h"

namespace tofu {

enum class Residency {
  kResident = 0,
  kRecompute = 1,
  kSwap = 2,
};

const char* ResidencyName(Residency residency);

// One non-resident decision. `tensor` is a liveness buffer root; the decision covers
// the whole in-place alias chain rooted there.
struct MemoryDecision {
  TensorId tensor = 0;
  Residency residency = Residency::kResident;
  // Per-worker shard bytes of the buffer (what leaves the device between uses).
  double bytes = 0.0;
  // Priced overhead of this decision: host-link seconds for kSwap, compute seconds
  // for kRecompute.
  double overhead_seconds = 0.0;
};

struct MemorySchedule {
  // Non-resident decisions only, sorted by tensor id (determinism; unlisted buffers
  // are kResident).
  std::vector<MemoryDecision> decisions;
  // The budget the repair pass was asked to meet (bytes per worker).
  std::int64_t budget_bytes = 0;
  // Liveness peak with every buffer resident (what the plan would need without the
  // schedule) and under the decisions (what it needs with them).
  std::int64_t baseline_peak_bytes = 0;
  std::int64_t scheduled_peak_bytes = 0;
  // Aggregate pricing. swap_bytes counts both directions of host traffic.
  double swap_bytes = 0.0;
  double swap_seconds = 0.0;
  double recompute_seconds = 0.0;
  // Host-link bandwidth (bytes/s) the swap pricing used.
  double host_bandwidth = 0.0;

  // Swaps and recomputation overlap (host link vs compute stream), so the analytic
  // overhead is the busier resource. The replay simulator validates
  // analytic <= sim <= 2x analytic (the serial worst case is the sum of the two).
  double AnalyticOverheadSeconds() const {
    return std::max(swap_seconds, recompute_seconds);
  }
};

// Liveness peak under `schedule`: resident buffers are charged over their whole
// lifetime as in LivenessPeakShardBytes, while recomputed/swapped buffers are charged
// only at the ops that touch them (their producer and each consumer of any alias).
// An empty schedule gives exactly LivenessPeakShardBytes; marking every buffer
// non-resident yields the minimum achievable peak: the largest single-op working set.
std::int64_t ScheduledPeakShardBytes(const Graph& graph, const PartitionPlan& plan,
                                     const MemorySchedule& schedule);

}  // namespace tofu

#endif  // TOFU_MEMORY_SCHEDULE_H_
