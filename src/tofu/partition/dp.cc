#include "tofu/partition/dp.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/memory/bytes.h"
#include "tofu/partition/search_engine.h"
#include "tofu/util/hash.h"
#include "tofu/util/logging.h"
#include "tofu/util/sharded_lru.h"
#include "tofu/util/strings.h"

namespace tofu {

std::string DpOptions::Fingerprint() const {
  // num_threads and step_table_cache are deliberately omitted: neither can change the
  // returned plan (the fields' contracts in dp.h), so keying on them would only cause
  // spurious cache misses. prune_dominated is included for its SearchStats (the plan
  // itself is provably invariant).
  return StrFormat("dp=%d,%lld,%d;", allow_reduction_strategies ? 1 : 0,
                   static_cast<long long>(max_states), prune_dominated ? 1 : 0);
}

// Named (not anonymous) so StepCompilation below can hold these types in shared_ptr
// members without tripping -Wsubobject-linkage; everything here is still file-internal
// by convention.
namespace dp_internal {

// Precompiled cost evaluator of one unit at this step. Strategy applicability, tensor
// sizes and halo extents are shape-only facts, resolved ONCE per step; on top of that,
// every term's cost contribution is a function of ONE slot's cut option only, so the
// contribution -- the Lemma-1 table entry, InputCommBytes / OutputCommBytes in
// strategy.h -- is precomputed per (term, option) into one flat value pool. The hot
// evaluation -- the function the per-group cost tables are filled from, the hottest
// code in the search -- is then a branch-free gather-accumulate: values[t.val_begin +
// option[t.slot]] summed in a fixed order.
//
// The accumulation order deliberately follows StepContext::OpCommBytes (per-op
// subtotals, inputs then output) so per-op costs are bit-identical to evaluating
// through StepContext.
struct TermRef {
  int slot;       // the tensor's slot (options are per slot)
  int val_begin;  // UnitEval::values[val_begin + option] is this term's contribution
};

// One member op's contribution under one strategy: `num_inputs` input TermRefs (stored
// contiguously in the owning flat array) followed by the output re-partition term.
struct OpTerms {
  int num_inputs;
  TermRef out;
};

struct StrategyEval {
  int sidx;
  int op_begin;    // index range into UnitEval::ops
  int op_end;
  int term_begin;  // start of this strategy's run in UnitEval::terms
};

// Flat-array evaluator (single allocation per array, contiguous traversal): ops[o]
// consumes the next ops[o].num_inputs entries of `terms`, in order.
struct UnitEval {
  // Replicated-execution baseline: per member op, the inputs it would all-gather.
  std::vector<int> repl_op_sizes;  // inputs per member op
  std::vector<TermRef> repl_terms;
  // Strategies applicable at this step's shapes (ascending sidx), reduction-filtered.
  std::vector<StrategyEval> strategies;
  std::vector<OpTerms> ops;
  std::vector<TermRef> terms;
  std::vector<double> values;  // per-(term, option) contribution pool
};

UnitEval BuildUnitEval(StepContext* ctx, const CoarseGraph& coarse, const Unit& unit,
                       bool allow_reduction, const std::vector<double>& tensor_bytes,
                       const std::vector<const std::vector<int>*>& slot_options) {
  const Graph& graph = ctx->graph();
  const int ways = ctx->ways();
  UnitEval ue;

  // Appends the table entry of one input term (requirement `req` on tensor `t`) for
  // every cut option of its slot, in option order, and returns its TermRef.
  auto add_input = [&](TensorId t, const ConcreteInputReq& req) {
    const int slot = coarse.tensor_slot[static_cast<size_t>(t)];
    const double size = tensor_bytes[static_cast<size_t>(t)];
    const std::int64_t extent =
        req.kind == InputReq::Kind::kSplit ? ctx->shape(t)[static_cast<size_t>(req.dim)] : 0;
    TermRef ref{slot, static_cast<int>(ue.values.size())};
    for (int cut : *slot_options[static_cast<size_t>(slot)]) {
      ue.values.push_back(InputCommBytes(size, ways, req, extent, cut));
    }
    return ref;
  };

  ue.repl_op_sizes.reserve(unit.ops.size());
  for (OpId op_id : unit.ops) {
    const OpNode& op = graph.op(op_id);
    ue.repl_op_sizes.push_back(static_cast<int>(op.inputs.size()));
    for (TensorId t : op.inputs) {
      ue.repl_terms.push_back(add_input(t, kWholeInput));
    }
  }

  const int num_strategies = static_cast<int>(ctx->Strategies(unit.ops[0]).size());
  for (int sidx = 0; sidx < num_strategies; ++sidx) {
    if (!allow_reduction &&
        ctx->Strategies(unit.ops[0])[static_cast<size_t>(sidx)].is_reduction) {
      continue;
    }
    bool ok = true;
    for (OpId op_id : unit.ops) {
      if (!ctx->Applicable(op_id, sidx)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      continue;
    }
    StrategyEval se;
    se.sidx = sidx;
    se.op_begin = static_cast<int>(ue.ops.size());
    se.term_begin = static_cast<int>(ue.terms.size());
    for (OpId op_id : unit.ops) {
      const OpNode& op = graph.op(op_id);
      const ConcreteStrategy& s = ctx->Strategies(op_id)[static_cast<size_t>(sidx)];
      OpTerms terms;
      terms.num_inputs = static_cast<int>(op.inputs.size());
      for (size_t i = 0; i < op.inputs.size(); ++i) {
        ue.terms.push_back(add_input(op.inputs[i], s.inputs[i]));
      }
      const int out_slot = coarse.tensor_slot[static_cast<size_t>(op.output)];
      const double out_size = tensor_bytes[static_cast<size_t>(op.output)];
      terms.out = TermRef{out_slot, static_cast<int>(ue.values.size())};
      for (int cut : *slot_options[static_cast<size_t>(out_slot)]) {
        ue.values.push_back(OutputCommBytes(out_size, ways, s, cut));
      }
      ue.ops.push_back(terms);
    }
    se.op_end = static_cast<int>(ue.ops.size());
    ue.strategies.push_back(se);
  }
  return ue;
}

// Minimal cost of one unit given fixed per-slot OPTION indices: min over applicable
// strategies of the summed member-op communication. Replicated execution (every worker
// runs the whole op) is a genuine candidate, not just a fallback -- for operators whose
// tensors are all stored replicated it is the zero-communication choice (strict < keeps
// it on ties).
double UnitCost(const UnitEval& ue, const std::vector<int>& slot_opt, int* best_sidx) {
  const double* values = ue.values.data();
  double best = 0.0;
  {
    const TermRef* t = ue.repl_terms.data();
    for (int n : ue.repl_op_sizes) {
      double op_total = 0.0;
      for (int i = 0; i < n; ++i, ++t) {
        op_total += values[t->val_begin + slot_opt[static_cast<size_t>(t->slot)]];
      }
      best += op_total;
    }
  }
  int best_idx = kReplicatedExec;
  for (const StrategyEval& se : ue.strategies) {
    double total = 0.0;
    // Each strategy's ops consume its own run of the shared flat term array.
    const TermRef* t = ue.terms.data() + se.term_begin;
    for (int o = se.op_begin; o < se.op_end; ++o) {
      const OpTerms& op = ue.ops[static_cast<size_t>(o)];
      double op_total = 0.0;
      for (int i = 0; i < op.num_inputs; ++i, ++t) {
        op_total += values[t->val_begin + slot_opt[static_cast<size_t>(t->slot)]];
      }
      op_total +=
          values[op.out.val_begin + slot_opt[static_cast<size_t>(op.out.slot)]];
      total += op_total;
    }
    if (total < best) {
      best = total;
      best_idx = se.sidx;
    }
  }
  if (best_sidx != nullptr) {
    *best_sidx = best_idx;
  }
  return best;
}

}  // namespace dp_internal

// One compiled step, as cached across requests: everything RunStepDp derives from
// (graph, shapes, ways, strategy filtering) and nothing it derives from budgets,
// bandwidths or thread counts. The structural fields re-validate a hit against the
// caller's coarse graph -- the 64-bit key could collide, and a colliding entry must be
// treated as a miss, never dereferenced into the wrong search space.
struct StepCompilation {
  int ways = 0;
  std::size_t num_groups = 0;
  std::vector<int> slot_num_options;
  std::shared_ptr<const std::vector<dp_internal::UnitEval>> unit_evals;
  std::shared_ptr<const std::vector<std::vector<double>>> slot_option_bytes;
  std::shared_ptr<const GroupCostTables> tables;  // null entries: never filled so far
};

struct StepTableCache::Impl {
  Impl(std::size_t max_entries, std::size_t shards) : entries(max_entries, shards) {}
  ShardedLruCache<std::shared_ptr<const StepCompilation>> entries;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

StepTableCache::StepTableCache(std::size_t max_entries, std::size_t shards)
    : impl_(std::make_unique<Impl>(max_entries, shards)) {}

StepTableCache::~StepTableCache() = default;

StepTableCache::Stats StepTableCache::stats() const {
  return {impl_->hits.load(std::memory_order_relaxed),
          impl_->misses.load(std::memory_order_relaxed)};
}

std::size_t StepTableCache::size() const { return impl_->entries.size(); }

// dp.cc-internal accessor (friended by StepTableCache): keeps StepCompilation out of
// the public header entirely.
struct StepTableCacheAccess {
  static std::shared_ptr<const StepCompilation> Lookup(StepTableCache* cache,
                                                       const std::string& key) {
    std::optional<std::shared_ptr<const StepCompilation>> hit =
        cache->impl_->entries.Lookup(key);
    return hit.has_value() ? *hit : nullptr;
  }
  static void Insert(StepTableCache* cache, const std::string& key,
                     std::shared_ptr<const StepCompilation> value) {
    cache->impl_->entries.Insert(key, std::move(value));
  }
  static void Count(StepTableCache* cache, bool hit) {
    (hit ? cache->impl_->hits : cache->impl_->misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
};

namespace {

// Cache key of one step compilation: graph structure (GraphSignature, memoized on the
// graph, so recursion steps do not rehash it), split factor, strategy filtering, an
// FNV-1a digest of every tensor's CURRENT shape (recursion
// shrinks shapes step by step, and every compiled value is shape-dependent -- sizes,
// halos, applicability, cut options, shard bytes), and a digest of the coarse group
// structure (the hybrid pipeline searches STAGE-FILTERED coarse graphs over the same
// graph and shapes -- without the group digest, every stage of every candidate cut
// would collide on one key and thrash the entry; see pipeline/compose.cc). Budgets,
// bandwidths, thread counts and state caps are deliberately absent: they do not
// influence any cached artifact, and their absence is precisely what lets a budget
// ladder or a re-plan with refreshed bandwidths hit the cache.
std::string StepCacheKey(StepContext* ctx, const Graph& graph, const CoarseGraph& coarse,
                         bool allow_reduction) {
  std::uint64_t h = kFnvDigestSeed;
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    const Shape& shape = ctx->shape(t);
    FnvMix(&h, 0x9e3779b97f4a7c15ull + shape.size());  // per-tensor separator
    for (std::int64_t d : shape) {
      FnvMix(&h, static_cast<std::uint64_t>(d));
    }
  }
  std::uint64_t gh = kFnvDigestSeed;
  FnvMix(&gh, coarse.groups.size());
  for (const MacroGroup& group : coarse.groups) {
    FnvMix(&gh, 0x9e3779b97f4a7c15ull + group.units.size());
    for (int u : group.units) {
      for (OpId op : coarse.units[static_cast<size_t>(u)].ops) {
        FnvMix(&gh, static_cast<std::uint64_t>(op));
      }
    }
    for (OpId op : group.ew_ops) {
      FnvMix(&gh, 0xbf58476d1ce4e5b9ull + static_cast<std::uint64_t>(op));
    }
  }
  return StrFormat("step;g=%016llx;w=%d;r=%d;s=%016llx;c=%016llx;",
                   static_cast<unsigned long long>(GraphSignature(graph)), ctx->ways(),
                   allow_reduction ? 1 : 0, static_cast<unsigned long long>(h),
                   static_cast<unsigned long long>(gh));
}

}  // namespace

DpResult RunStepDp(StepContext* ctx, const CoarseGraph& coarse, const DpOptions& options,
                   std::int64_t memory_budget_bytes) {
  const Graph& graph = ctx->graph();
  const int num_slots = coarse.num_slots();
  const std::size_t num_groups = coarse.groups.size();

  // Cut options per slot (identical across members; validated by Coarsen). Cached by
  // StepContext, so this is a pointer copy per slot.
  std::vector<const std::vector<int>*> slot_options(static_cast<size_t>(num_slots));
  SearchSpace space;
  space.slot_num_options.resize(static_cast<size_t>(num_slots));
  for (int s = 0; s < num_slots; ++s) {
    slot_options[static_cast<size_t>(s)] =
        &ctx->CutOptions(coarse.slots[static_cast<size_t>(s)].members[0]);
    space.slot_num_options[static_cast<size_t>(s)] =
        static_cast<int>(slot_options[static_cast<size_t>(s)]->size());
  }
  space.group_slots.reserve(num_groups);
  for (const MacroGroup& group : coarse.groups) {
    space.group_slots.push_back(group.touched_slots);  // already sorted, unique
  }

  // Incremental re-planning: look this step up in the cross-request compilation cache.
  // A hit must match the coarse structure exactly (key collisions degrade to a miss).
  std::shared_ptr<const StepCompilation> cached;
  std::string cache_key;
  if (options.step_table_cache != nullptr) {
    cache_key = StepCacheKey(ctx, graph, coarse, options.allow_reduction_strategies);
    cached = StepTableCacheAccess::Lookup(options.step_table_cache, cache_key);
    if (cached != nullptr &&
        (cached->ways != ctx->ways() || cached->num_groups != num_groups ||
         cached->slot_num_options != space.slot_num_options)) {
      cached = nullptr;
    }
    StepTableCacheAccess::Count(options.step_table_cache, cached != nullptr);
  }

  // Memory model: each slot's resident bytes per cut option (all members of a slot
  // share one cut, so the slot's contribution is the sum of its members' shards).
  // Always built: with a budget it drives the engine's pruning and tie-breaks; without
  // one the engine ignores it except in the dominance analysis, whose rule demands an
  // option be no worse on BOTH cost and bytes before a sibling is dropped.
  std::shared_ptr<const std::vector<std::vector<double>>> option_bytes;
  if (cached != nullptr) {
    option_bytes = cached->slot_option_bytes;
  } else {
    auto fresh = std::make_shared<std::vector<std::vector<double>>>(
        static_cast<size_t>(num_slots));
    for (int s = 0; s < num_slots; ++s) {
      const std::vector<int>& cut_opts = *slot_options[static_cast<size_t>(s)];
      std::vector<double>& bytes_per_option = (*fresh)[static_cast<size_t>(s)];
      bytes_per_option.reserve(cut_opts.size());
      for (int cut : cut_opts) {
        bytes_per_option.push_back(SlotShardBytesForCut(
            graph, coarse.slots[static_cast<size_t>(s)].members, cut, ctx->ways(),
            [ctx](TensorId t) -> const Shape& { return ctx->shape(t); }));
      }
    }
    option_bytes = std::move(fresh);
  }
  space.slot_option_bytes = *option_bytes;

  // Per-unit evaluators: applicability, sizes, halos and per-option cost contributions
  // resolved once per step -- or reused outright from the cached compilation.
  std::shared_ptr<const std::vector<dp_internal::UnitEval>> unit_evals;
  if (cached != nullptr) {
    unit_evals = cached->unit_evals;
  } else {
    std::vector<double> tensor_bytes(static_cast<size_t>(graph.num_tensors()));
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      tensor_bytes[static_cast<size_t>(t)] = static_cast<double>(ctx->bytes(t));
    }
    auto fresh = std::make_shared<std::vector<dp_internal::UnitEval>>();
    fresh->reserve(coarse.units.size());
    for (const Unit& unit : coarse.units) {
      fresh->push_back(dp_internal::BuildUnitEval(ctx, coarse, unit,
                                                  options.allow_reduction_strategies,
                                                  tensor_bytes, slot_options));
    }
    unit_evals = std::move(fresh);
  }

  // Scratch per-slot OPTION-index array consulted by the cost evaluator. Only the
  // touched slots are (re)written before each evaluation, and only they are read.
  std::vector<int> slot_opt(static_cast<size_t>(num_slots), 0);

  // Group table fill: one call per group table. Walks the engine's canonical
  // enumeration with an odometer over the counts of the space being filled (a capped
  // search keeps each slot's lowest-index cut options), so only the options that
  // actually change between consecutive cells are rewritten. Element-wise riders
  // contribute nothing: their tensors share one slot, hence one cut, hence zero
  // re-partition traffic by construction.
  SearchEngine::GroupFillFn fill_fn = [&](int g, const std::vector<int>& num_options,
                                          double* cells, std::int64_t num_cells) {
    const MacroGroup& group = coarse.groups[static_cast<size_t>(g)];
    const std::vector<int>& touched = group.touched_slots;
    const int k = static_cast<int>(touched.size());
    for (int s : touched) {
      slot_opt[static_cast<size_t>(s)] = 0;
    }
    const std::vector<dp_internal::UnitEval>& evals = *unit_evals;
    for (std::int64_t idx = 0;;) {
      double group_cost = 0.0;
      for (int u : group.units) {
        group_cost += dp_internal::UnitCost(evals[static_cast<size_t>(u)], slot_opt, nullptr);
      }
      cells[idx] = group_cost;
      if (++idx == num_cells) {
        break;
      }
      for (int i = k - 1; i >= 0; --i) {
        const int s = touched[static_cast<size_t>(i)];
        if (++slot_opt[static_cast<size_t>(s)] < num_options[static_cast<size_t>(i)]) {
          break;
        }
        slot_opt[static_cast<size_t>(s)] = 0;
      }
    }
    return true;
  };

  SearchEngineOptions engine_options;
  engine_options.max_states = options.max_states;
  engine_options.prune_dominated = options.prune_dominated;
  engine_options.memory_budget = static_cast<double>(memory_budget_bytes);
  if (cached != nullptr) {
    engine_options.reuse_tables = cached->tables;
  }
  SearchEngine engine(std::move(space), engine_options);
  SearchEngine::Result search = engine.Run(fill_fn);

  // Publish the compilation on a miss. Every search that runs exports all of its
  // tables, so a hit has nothing to add.
  if (options.step_table_cache != nullptr && cached == nullptr && search.tables != nullptr) {
    auto entry = std::make_shared<StepCompilation>();
    entry->ways = ctx->ways();
    entry->num_groups = num_groups;
    entry->slot_num_options.resize(static_cast<size_t>(num_slots));
    for (int s = 0; s < num_slots; ++s) {
      entry->slot_num_options[static_cast<size_t>(s)] =
          static_cast<int>(slot_options[static_cast<size_t>(s)]->size());
    }
    entry->unit_evals = unit_evals;
    entry->slot_option_bytes = option_bytes;
    entry->tables = search.tables;
    StepTableCacheAccess::Insert(options.step_table_cache, cache_key, std::move(entry));
  }

  DpResult result;
  result.stats = search.stats;
  result.min_possible_bytes = search.min_possible_bytes;
  if (!search.feasible) {
    // No assignment at this step's shapes fits the budget; the caller (recursive.cc)
    // decides whether another factor ordering or a min-bytes fallback can.
    result.feasible = false;
    return result;
  }

  // Plan assembly from the chosen per-slot options.
  std::vector<int> slot_cut(static_cast<size_t>(num_slots), kReplicated);
  for (int s = 0; s < num_slots; ++s) {
    slot_cut[static_cast<size_t>(s)] = (*slot_options[static_cast<size_t>(s)])[
        static_cast<size_t>(search.slot_option[static_cast<size_t>(s)])];
  }

  BasicPlan plan;
  plan.ways = ctx->ways();
  plan.comm_bytes = search.best_cost;
  plan.tensor_cut.assign(static_cast<size_t>(graph.num_tensors()), kReplicated);
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    plan.tensor_cut[static_cast<size_t>(t)] =
        slot_cut[static_cast<size_t>(coarse.tensor_slot[static_cast<size_t>(t)])];
  }
  // Per-group resident bytes after this step (always recorded, budget or not, so plans
  // carry their memory footprint for serialization and the session's reporting).
  plan.peak_shard_bytes = StepResidentBytes(
      graph, plan.tensor_cut, ctx->ways(),
      [ctx](TensorId t) -> const Shape& { return ctx->shape(t); });
  plan.op_strategy.assign(static_cast<size_t>(graph.num_ops()), kReplicatedExec);
  for (size_t u = 0; u < coarse.units.size(); ++u) {
    int sidx = kReplicatedExec;
    dp_internal::UnitCost((*unit_evals)[u], search.slot_option, &sidx);
    for (OpId op : coarse.units[u].ops) {
      plan.op_strategy[static_cast<size_t>(op)] = sidx;
    }
  }
  for (const MacroGroup& group : coarse.groups) {
    for (OpId op : group.ew_ops) {
      plan.op_strategy[static_cast<size_t>(op)] =
          ctx->ForcedElementwiseStrategy(op, plan.tensor_cut);
    }
  }
  result.plan = std::move(plan);
  return result;
}

}  // namespace tofu
