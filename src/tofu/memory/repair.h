// The memory repair pass: turns an infeasible budget into a MemorySchedule instead of
// a kResourceExhausted.
//
// When every constrained search configuration overflows the budget, the search keeps
// its minimum-communication plan and asks this pass which buffers to recompute or
// host-swap so the liveness peak fits. Candidates are liveness buffer roots; each is
// priced at the cheaper of
//
//   swap:      one swap-out + one swap-in over the host link
//              (2 * (link latency + shard_bytes / host_bandwidth)), available to any
//              buffer including resident model state;
//   recompute: one extra shard-kernel run of the producer, priced by the simulator's
//              own oracle (sim/lowering.h ShardKernelSeconds at the plan's shard
//              granularity), available to produced, non-aliased buffers only --
//              an in-place chain accumulates state that a single producer re-run
//              cannot reconstruct.
//
// The pass marks candidates greedily by overhead-per-byte-released (deterministic
// tie-breaks: cheaper total, then lower tensor id) until ScheduledPeakShardBytes meets
// the budget. The fixed candidate order makes the schedule a prefix of one sorted
// list, so tighter budgets mark supersets: overhead is monotone along a budget ladder,
// which check_perf.py's frontier gate asserts.
#ifndef TOFU_MEMORY_REPAIR_H_
#define TOFU_MEMORY_REPAIR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "tofu/graph/graph.h"
#include "tofu/memory/schedule.h"
#include "tofu/partition/plan.h"
#include "tofu/sim/cost_model.h"
#include "tofu/util/status.h"

namespace tofu {

// What the repair pass may trade for memory. kNone restores the pre-repair behavior
// (infeasible budgets surface kResourceExhausted witnesses).
enum class MemoryPolicy {
  kAuto = 0,          // cheaper of swap and recompute per buffer
  kNone = 1,          // repair disabled
  kSwapOnly = 2,      // host-swap only (e.g. recomputation-hostile graphs)
  kRecomputeOnly = 3  // recompute only (e.g. no host link to spare)
};

const char* MemoryPolicyName(MemoryPolicy policy);
// Accepts the names MemoryPolicyName returns ("auto", "none", "swap", "recompute").
Result<MemoryPolicy> MemoryPolicyFromName(const std::string& name);

// Pricing inputs for the two overheads. `host_bandwidth` == 0 falls back to
// cluster.cpu_bandwidth; the session fills it from its topology (the interconnect's
// bottleneck link, matching how swap traffic would actually reach the host).
struct MemoryPricing {
  ClusterSpec cluster = K80Cluster();
  double host_bandwidth = 0.0;

  double HostBandwidth() const {
    return host_bandwidth > 0.0 ? host_bandwidth : cluster.cpu_bandwidth;
  }
  std::string Fingerprint() const;
};

struct RepairResult {
  // True when some prefix of decisions brings the peak within budget. On false, the
  // schedule is the full marking and min_achievable_peak_bytes is its peak -- the
  // floor no schedule can beat, quoted by the session's kResourceExhausted message.
  bool feasible = false;
  std::shared_ptr<const MemorySchedule> schedule;
  std::int64_t min_achievable_peak_bytes = 0;
};

// Builds the cheapest prefix schedule meeting `budget_bytes` for `plan` on `graph`.
// policy == kNone always returns infeasible-without-schedule.
RepairResult BuildRepairSchedule(const Graph& graph, const PartitionPlan& plan,
                                 std::int64_t budget_bytes, MemoryPolicy policy,
                                 const MemoryPricing& pricing);

// The peak no schedule can beat under kAuto (every buffer offloaded: the largest
// single-op working set plus nothing else). Used by infeasibility messages.
std::int64_t MinAchievablePeakBytes(const Graph& graph, const PartitionPlan& plan);

}  // namespace tofu

#endif  // TOFU_MEMORY_REPAIR_H_
