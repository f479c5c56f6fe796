// Dynamic-programming search for one basic partition step (paper §5.1, after Jia et al.
// ICML'18, adapted to fine-grained coarsened graphs).
//
// The DP processes macro groups in program order, maintaining a frontier of "live" slots
// (slots touched by both processed and unprocessed groups). A DP state assigns a storage
// cut to every frontier slot; adding a group charges, for each of its units, the cheapest
// applicable strategy given those cuts -- strategies are conditionally independent given
// the cuts, which is what keeps the in-group search cheap ("only a few operators in each
// group"). On a linear coarsened graph this is exactly the chain DP of the paper; residual
// fork-joins simply widen the frontier by one slot.
//
// The frontier mechanics (the dense lattice sweep, per-group dense cost tables, the state
// cap, optional threaded expansion) live in the shared engine of
// partition/search_engine.h; this file contributes only the step-DP cost semantics.
#ifndef TOFU_PARTITION_DP_H_
#define TOFU_PARTITION_DP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "tofu/partition/coarsen.h"
#include "tofu/partition/plan.h"
#include "tofu/partition/search_stats.h"
#include "tofu/partition/strategy.h"

namespace tofu {

class StepTableCache;

struct DpOptions {
  // Drop case-2 (output-reduction) strategies; models the ICML'18 baseline of §7.3.
  bool allow_reduction_strategies = true;
  // Safety cap on simultaneous DP states (frontier blow-up on non-chain graphs). It
  // bounds the frontier width, not the fill work of the group tables under it: RNN-6-4K
  // (batch 256) at 8 workers with coalesce_elementwise = false fills for over a minute
  // at the default, against about a second at 1 << 14 (docs/search.md, "Over-cap
  // searches").
  std::int64_t max_states = 1 << 22;
  // Ignored: every search runs on the calling thread (partition/search_engine.h). Kept
  // only because existing callers still set it; ROADMAP tracks its removal.
  int num_threads = 0;
  // Dominated-option pruning in the engine's dense-lattice searches (see
  // SearchEngineOptions::prune_dominated): provably plan-preserving, on by default;
  // exposed so ablations can measure it. Part of the fingerprint -- not because plans
  // differ (they cannot), but because SearchStats differ and cached stats must match
  // what a fresh search would report.
  bool prune_dominated = true;
  // Optional cross-request cache of per-step DP compilations (incremental
  // re-planning). Not owned; null disables caching. Deliberately EXCLUDED from
  // Fingerprint -- the cache is a performance vehicle, never an input: a warm lookup
  // reuses unit evaluators and cost tables whose values are fully determined by the
  // step's graph, shapes, ways and allow_reduction_strategies (all part of the cache
  // key), so warm and cold searches return byte-identical plans AND stats.
  StepTableCache* step_table_cache = nullptr;

  // Deterministic serialization of every semantically relevant field for the Session
  // plan-cache key; extend together with the struct (see CoarsenOptions::Fingerprint).
  // num_threads and step_table_cache are omitted: neither can change the returned plan.
  std::string Fingerprint() const;
};

// Cache of per-step DP compilations, keyed by (graph signature, step shapes, ways,
// strategy filtering) -- everything the compiled artifacts depend on, and nothing they
// do not: memory budgets, link bandwidths, thread counts and state caps are all
// EXCLUDED, so a request that differs only in those (a budget ladder probing the same
// model, a re-plan after a bandwidth re-measure) reuses the expensive work of the
// original search. A hit skips rebuilding the per-unit cost evaluators and the per-slot
// byte tables, and hands the engine every previously computed per-group cost table
// (SearchEngineOptions::reuse_tables). An entry is published by the first search of a
// step that exports its tables (all of them), so a hit never has tables to add.
// Thread-safe; entries are immutable once published.
class StepTableCache {
 public:
  explicit StepTableCache(std::size_t max_entries = 64, std::size_t shards = 8);
  ~StepTableCache();

  StepTableCache(const StepTableCache&) = delete;
  StepTableCache& operator=(const StepTableCache&) = delete;

  struct Stats {
    std::uint64_t hits = 0;    // lookups that reused a compatible compilation
    std::uint64_t misses = 0;  // lookups that compiled fresh (including first touch)
  };
  Stats stats() const;
  std::size_t size() const;

 private:
  friend struct StepTableCacheAccess;  // dp.cc-internal lookup/insert
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct DpResult {
  BasicPlan plan;
  // False when a budget > 0 excluded every assignment at this step: even
  // cutting every tensor that can be cut overflows the budget. The plan is then
  // meaningless (empty); min_possible_bytes reports the unbeatable lower bound.
  bool feasible = true;
  // Lower bound on per-group resident bytes over ALL assignments at this step's shapes
  // (each slot takes its lightest cut). 0 when the search ran without a budget.
  double min_possible_bytes = 0.0;
  // Search effort and exactness (stats.exact is false only when the frontier exceeded
  // DpOptions::max_states and the search ran on a capped option subset; with the
  // coarsening of §5.1 enabled that never happens on the paper's models -- the cap
  // exists so ablations that disable coarsening degrade instead of failing).
  SearchStats stats;
};

// Finds the minimum-communication basic plan for ctx->ways() worker groups.
//
// `memory_budget_bytes` is the resident-byte budget for ONE worker group at this step
// (the recursion relaxes the per-worker budget by the shrink still to come; see
// recursive.cc). > 0 makes the search prune assignments whose per-group shard bytes
// cannot fit and prefer lighter plans on cost ties, returning the cheapest feasible
// plan the constrained DP finds -- guaranteed feasible, and exact except when an
// equal-key projection merge discards the state with the only cheap feasible
// completion (docs/search.md, "Memory-constrained search", documents this
// approximation). 0 keeps the search unconstrained and bit-identical to the pre-budget
// engine. The step's seconds are priced by StepFold::Append (partition/strategy.h),
// which knows the link the step crosses.
DpResult RunStepDp(StepContext* ctx, const CoarseGraph& coarse, const DpOptions& options,
                   std::int64_t memory_budget_bytes = 0);

}  // namespace tofu

#endif  // TOFU_PARTITION_DP_H_
