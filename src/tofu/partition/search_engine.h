// Shared frontier-DP search engine behind RunStepDp and RunFlatDp.
//
// Both searches have the same skeleton: walk macro groups in program order keeping a
// frontier of "live" slots (slots touched by both processed and unprocessed groups);
// a DP state assigns every frontier slot one of a small set of options (a storage cut
// for the per-step DP, a full multi-step tiling for the flat DP); entering slots branch
// every state on their options, each group charges a cost that depends only on its
// touched slots' options, and leaving slots are projected out keeping the cheapest
// state per residue.
//
// The engine owns that skeleton once, as a DENSE LATTICE: the frontier is one flat cost
// array whose axes are the live slots in branch order (newest axis fastest), exactly the
// cross product of the live slots' options. Branching is a contiguous broadcast,
// charging a group is a gather from the group's dense cost table (one evaluation per
// combination of its touched slots' options, all filled before the sweep) plus a
// contiguous vector add, and projection is a strict-less min-reduce along one axis.
// Hoisting the fills is what enables dominated-option pruning and table reuse across
// searches (GroupCostTables below). A fill may stop the search (the flat DP's
// wall-clock budget); the sweep then never runs.
//
// A memory budget adds a parallel bytes array: cells whose bytes cannot fit the budget
// under any completion are dead (+inf cost), and projections prefer lighter cells on
// cost ties.
//
// The whole search runs on the calling thread. The lattices of real steps are small
// (no phase of the Table 1 models reaches 2^15 cells), and one thread-pool hand-off
// costs more than such a phase's work (docs/search.md, "Threading model").
#ifndef TOFU_PARTITION_SEARCH_ENGINE_H_
#define TOFU_PARTITION_SEARCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tofu/partition/search_stats.h"

namespace tofu {

// Engine-facing shape of one search: per-slot option counts and, per group in
// processing order, the sorted unique slots whose options the group's cost reads.
struct SearchSpace {
  std::vector<int> slot_num_options;          // per slot; every entry >= 1
  std::vector<std::vector<int>> group_slots;  // per group: sorted, unique slot indices
  // Optional memory model: slot_option_bytes[s][o] is the resident bytes one worker
  // group keeps when slot s takes option o. Empty disables byte tracking; when present
  // the outer size must match slot_num_options and each inner size the slot's count.
  // Byte totals are separable per slot, which is what makes admissible pruning cheap:
  // a state's lower bound is its accumulated bytes plus every undecided slot's cheapest
  // option.
  std::vector<std::vector<double>> slot_option_bytes;
};

// Per-group dense cost tables of one search, shareable across searches of
// the same space (the values depend only on the group cost function, never on budgets,
// or bandwidths). groups[g] holds exactly group g's mixed-radix cell
// values in the engine's canonical enumeration order. Immutable once published -- safe
// to share across threads and cache entries.
struct GroupCostTables {
  std::vector<std::shared_ptr<const std::vector<double>>> groups;
};

struct SearchEngineOptions {
  // Safety cap on simultaneous DP states (frontier blow-up on non-chain graphs). When
  // the schedule's frontier width exceeds it, each entering slot (in schedule order)
  // keeps only its lowest-index max(1, max_states / width) options, width being the
  // capped frontier it enters; the search fills its tables at the subset's option
  // counts, imports and exports none, and reports SearchStats::exact false. The cap
  // bounds the frontier width only, not the fill work of the group tables under it.
  std::int64_t max_states = 1 << 22;
  // Dominated-option pruning (unbudgeted searches only): after the hoisted
  // table fills, option o of slot s is dropped when some option o' < o is pointwise no
  // more expensive in EVERY group table touching s and (when slot_option_bytes is
  // present) no heavier. Every frontier state using o is then beaten by its o'-sibling on both
  // cost and bytes under every completion, so pruning provably never changes the
  // returned plan, including ties (o' < o keeps the canonical lowest-index winner).
  // Pruned states are counted in SearchStats::dominated_pruned_states; table fills
  // still run in full first, so states_explored / cost_table_entries are unchanged.
  bool prune_dominated = true;
  // Optional tables from a previous search of the same space (incremental
  // re-planning). A group's table is imported instead of refilled when the cell count
  // matches (never in a capped search); imported cells are counted in
  // SearchStats::reused_table_entries (and still in states_explored, so results are
  // byte-identical to a cold search).
  std::shared_ptr<const GroupCostTables> reuse_tables;
  // Per-worker-group resident-byte budget. > 0 (together with a populated
  // SearchSpace::slot_option_bytes) turns on memory-constrained search: cells whose
  // byte lower bound exceeds the budget die at branch time, equal-cost projections
  // prefer lighter cells, dominated-option pruning is off, and Result::feasible reports
  // whether any assignment fits at all. <= 0 keeps the search bit-identical to the
  // unconstrained engine (no byte tracking, original tie-breaks).
  double memory_budget = 0.0;
};

class SearchEngine {
 public:
  // Writes group `g`'s whole dense cost table (`num_cells` doubles) in the engine's
  // canonical mixed-radix enumeration order -- combination (o_0,...,o_{k-1}) of
  // SearchSpace::group_slots[g] at index sum(o_i * stride_i), last touched slot fastest
  // (stride 1). `num_options[i]` is the option count of group_slots[g][i] in the space
  // being filled: the full count, or a capped search's lowest-index prefix of it
  // (SearchEngineOptions::max_states), so option i names the same choice in both and the
  // cell values never depend on which one is filled. Returns false to stop the whole
  // search (deadline exceeded): no later group is filled and the sweep never runs.
  using GroupFillFn = std::function<bool(int group, const std::vector<int>& num_options,
                                         double* cells, std::int64_t num_cells)>;

  struct Result {
    bool completed = true;          // false only when a fill stopped the search
    // False when a memory budget excluded every assignment (the lightest possible
    // choice per slot already overflows -- then no fill ran -- or, in a capped
    // search, every assignment of the option subset does); slot_option is then all
    // zeros. Always true without a budget.
    bool feasible = true;
    double best_cost = 0.0;
    // Chosen option index per slot; slots no group touches default to option 0.
    std::vector<int> slot_option;
    // Byte-tracking results (0 without a budget): the chosen assignment's resident
    // bytes, and the lower bound over ALL assignments (sum of each slot's cheapest
    // option; of the option subset in a capped search) -- what an infeasible search
    // proves cannot be beaten.
    double best_bytes = 0.0;
    double min_possible_bytes = 0.0;
    // Every dense cost table this search consumed (filled or imported); null in
    // stopped searches, capped searches, and searches proved infeasible up front. What
    // a step-table cache stores for the next search of this space.
    std::shared_ptr<const GroupCostTables> tables;
    SearchStats stats;
  };

  SearchEngine(SearchSpace space, SearchEngineOptions options);
  ~SearchEngine();

  Result Run(const GroupFillFn& fill_fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tofu

#endif  // TOFU_PARTITION_SEARCH_ENGINE_H_
