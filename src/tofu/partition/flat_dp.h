// The non-recursive "DP with coarsening" of Table 1: one DP pass whose configurations are
// full multi-dimension tilings (e.g. the 20 ways to split a 4-D tensor across 8 workers)
// and whose per-group search enumerates the *joint* configuration space of the group's
// members -- the 20^6-style blow-up the paper measured at 8 hours for WResNet-152.
//
// The search runs under a wall-clock budget: small graphs complete (and are cross-checked
// against the recursive algorithm in tests); large graphs report the enumerated share and
// a projected completion time, which is what bench_table1_search prints.
//
// The frontier mechanics are the shared engine of partition/search_engine.h: each
// group's dense cost table holds, per combination of its slots' tilings, the minimum over
// its units' joint strategy sequences. Every configuration is therefore costed exactly
// once, so a completed search evaluates configs_total configurations -- Table 1's count.
#ifndef TOFU_PARTITION_FLAT_DP_H_
#define TOFU_PARTITION_FLAT_DP_H_

#include "tofu/partition/coarsen.h"
#include "tofu/partition/plan.h"

namespace tofu {

struct FlatDpOptions {
  int num_workers = 8;
  double time_budget_seconds = 5.0;
};

struct FlatDpResult {
  bool completed = false;
  PartitionPlan plan;  // meaningful only when completed
  double elapsed_seconds = 0.0;
  // Joint group configurations actually costed vs. the full count the run would need
  // (equal when completed).
  double configs_evaluated = 0.0;
  double configs_total = 0.0;
  double projected_seconds = 0.0;  // elapsed scaled to the full count (when incomplete)
};

// num_workers <= 1 returns the trivial single-worker plan, completed, as
// RecursivePartition does.
FlatDpResult RunFlatDp(const Graph& graph, const CoarseGraph& coarse,
                       const FlatDpOptions& options);

}  // namespace tofu

#endif  // TOFU_PARTITION_FLAT_DP_H_
