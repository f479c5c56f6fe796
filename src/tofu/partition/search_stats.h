// Instrumentation of one partition search, surfaced through DpResult and PartitionPlan
// so benchmarks and tests can assert on search effort, not just on the resulting plan.
#ifndef TOFU_PARTITION_SEARCH_STATS_H_
#define TOFU_PARTITION_SEARCH_STATS_H_

#include <algorithm>
#include <cstdint>

namespace tofu {

struct SearchStats {
  // Group-cost evaluations the search REQUIRED: every dense cost-table cell (whether
  // the cells were computed this run or imported from a step-table cache -- see
  // reused_table_entries; budgeted searches fill the same full tables). Deterministic
  // for a given search space, independent of cache temperature, thread count, and
  // dominance pruning, which is what lets plan serializations stay byte-identical
  // across warm and cold searches. A search a fill stopped counts only the groups
  // filled before it.
  std::int64_t states_explored = 0;
  // Peak number of simultaneous DP states the SCHEDULE defines over the full option
  // counts (the frontier blow-up the state cap guards), for every search. Neither
  // dominance pruning nor budget pruning nor the cap lowers this figure; dominated
  // states are reported separately in dominated_pruned_states.
  std::int64_t max_frontier_states = 0;
  // Total cells across all per-group cost tables the search consumed.
  // Computed-or-imported, like states_explored.
  std::int64_t cost_table_entries = 0;
  // Lattice cells killed at branch time because their resident bytes -- plus the
  // cheapest possible choices for every slot not yet decided -- already exceeded the
  // step's memory budget, counted only when the parent cell was alive. Always 0 when
  // the search ran without a budget (the pruning never engages).
  std::int64_t memory_pruned_states = 0;
  // Frontier states never materialized because their option for some slot was
  // dominated: another option of the same slot is pointwise no worse across every
  // group cost table touching the slot (and no heavier when byte tables are present).
  // Diagnostic only -- never serialized into plan JSON (docs/search.md, "Dominated-
  // state pruning").
  std::int64_t dominated_pruned_states = 0;
  // Cost-table cells imported from a StepTableCache (partition/dp.h) instead of being
  // recomputed. Those cells still count in states_explored / cost_table_entries (the
  // search needed them); this counter is how much of that work a warm cache saved.
  // Diagnostic only -- never serialized into plan JSON.
  std::int64_t reused_table_entries = 0;
  // Full-table cells excluded from the dense sweep's compacted charge tables because
  // some coordinate's option was dominated: the charge gather never reads them (the
  // fill still computes them, so states_explored / cost_table_entries are unchanged).
  // Always 0 when dominance pruning is off or nothing was dominated. Diagnostic only --
  // never serialized into plan JSON.
  std::int64_t pruned_table_cells = 0;
  double wall_seconds = 0.0;
  // Per-phase wall-time attribution of wall_seconds (diagnostic; not serialized):
  // cost-table fills, state expansion (branching entering slots), charging group costs
  // to states, and projection (repack + min-merge / min-reduce + final argmin).
  double fill_seconds = 0.0;
  double expand_seconds = 0.0;
  double charge_seconds = 0.0;
  double project_seconds = 0.0;
  // False when the frontier exceeded the state cap and the search ran on a capped
  // option subset (the plan is then an approximation; see
  // SearchEngineOptions::max_states).
  bool exact = true;

  // Folds one step's stats into a whole-plan aggregate (recursive steps sum effort and
  // wall time; the peak frontier is a max; exactness is conjunctive).
  void Merge(const SearchStats& step) {
    states_explored += step.states_explored;
    max_frontier_states = std::max(max_frontier_states, step.max_frontier_states);
    cost_table_entries += step.cost_table_entries;
    memory_pruned_states += step.memory_pruned_states;
    dominated_pruned_states += step.dominated_pruned_states;
    reused_table_entries += step.reused_table_entries;
    pruned_table_cells += step.pruned_table_cells;
    wall_seconds += step.wall_seconds;
    fill_seconds += step.fill_seconds;
    expand_seconds += step.expand_seconds;
    charge_seconds += step.charge_seconds;
    project_seconds += step.project_seconds;
    exact = exact && step.exact;
  }
};

}  // namespace tofu

#endif  // TOFU_PARTITION_SEARCH_STATS_H_
