#include "tofu/partition/recursive.h"

#include <algorithm>
#include <limits>

#include "tofu/memory/bytes.h"
#include "tofu/memory/liveness.h"
#include "tofu/memory/repair.h"
#include "tofu/util/logging.h"
#include "tofu/util/strings.h"

namespace tofu {

std::string PartitionOptions::Fingerprint() const {
  std::string out = coarsen.Fingerprint() + dp.Fingerprint() + "bw=";
  for (double b : step_bandwidths) {
    out += StrFormat("%.17g,", b);
  }
  out += ';';
  out += StrFormat("mb=%lld;", static_cast<long long>(memory_budget_bytes));
  out += StrFormat("mpol=%d;", static_cast<int>(memory_policy));
  out += memory_pricing.Fingerprint();
  return out;
}

namespace {

// Per-worker budget relaxed for step i: the steps still to come can shrink a tensor by
// at most the product of their factors, so a plan whose final per-worker shards fit B
// necessarily keeps step i's per-group bytes within B * prod(factors[i+1..]) -- the
// per-step bound the DP prunes against. Saturating: huge budgets stay "unconstrained
// enough" instead of overflowing.
std::int64_t StepBudget(std::int64_t budget, const std::vector<int>& factors, size_t i) {
  if (budget <= 0) {
    return 0;
  }
  std::int64_t remaining = 1;
  for (size_t j = i + 1; j < factors.size(); ++j) {
    remaining *= factors[j];
  }
  if (budget > std::numeric_limits<std::int64_t>::max() / remaining) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return budget * remaining;
}

// Runs the per-step DP loop for one ordering of the step factors. Coarsening is
// structural and shared by all steps (and all candidate orderings); shapes change per
// step. With a budget, each step searches under its relaxed bound; a step where even
// the lightest assignment overflows stops the loop with memory_feasible = false (the
// partial plan is only an infeasibility witness -- the driver never returns it).
PartitionPlan RunSteps(const Graph& graph, int num_workers, const CoarseGraph& coarse,
                       const PartitionOptions& options, const std::vector<int>& factors) {
  PartitionPlan plan;
  plan.num_workers = num_workers;
  plan.step_factors = factors;
  plan.memory_budget_bytes = options.memory_budget_bytes;
  StepFold fold(graph, &plan);
  for (size_t i = 0; i < factors.size(); ++i) {
    StepContext ctx(graph, fold.shapes(), factors[i]);
    DpResult dp = RunStepDp(&ctx, coarse, options.dp,
                            StepBudget(options.memory_budget_bytes, factors, i));
    plan.search_stats.Merge(dp.stats);
    if (!dp.feasible) {
      plan.memory_feasible = false;
      return plan;
    }
    fold.Append(std::move(dp.plan), StepBandwidth(options, i));
  }
  return plan;
}

// The lightest plan of one factor ordering, built without the DP: byte totals are
// separable per slot, so each slot independently takes its minimum-resident cut at
// every step (ties prefer the dimension with the largest current extent, keeping later
// steps something to cut; then the lowest dimension, for determinism), and each
// operator the cheapest strategy under those cuts. This is both the feasibility
// fallback when every constrained DP ordering fails -- a feasible plan may still exist
// off the DP's cost-greedy path -- and the witness behind a kResourceExhausted verdict:
// if even this plan overflows, the configuration cannot fit.
PartitionPlan MinBytesSteps(const Graph& graph, int num_workers, const CoarseGraph& coarse,
                            const PartitionOptions& options,
                            const std::vector<int>& factors) {
  PartitionPlan plan;
  plan.num_workers = num_workers;
  plan.step_factors = factors;
  plan.memory_budget_bytes = options.memory_budget_bytes;
  StepFold fold(graph, &plan);
  for (size_t i = 0; i < factors.size(); ++i) {
    const int f = factors[i];
    StepContext ctx(graph, fold.shapes(), f);
    BasicPlan bp;
    bp.ways = f;
    bp.tensor_cut.assign(static_cast<size_t>(graph.num_tensors()), kReplicated);
    for (const TensorSlot& slot : coarse.slots) {
      const TensorId rep = slot.members[0];
      int best_cut = kReplicated;
      double best_bytes = std::numeric_limits<double>::infinity();
      std::int64_t best_extent = -1;
      for (int cut : ctx.CutOptions(rep)) {
        const double b = SlotShardBytesForCut(
            graph, slot.members, cut, f,
            [&ctx](TensorId t) -> const Shape& { return ctx.shape(t); });
        const std::int64_t extent =
            cut == kReplicated ? -1 : ctx.shape(rep)[static_cast<size_t>(cut)];
        if (b < best_bytes || (b == best_bytes && extent > best_extent)) {
          best_cut = cut;
          best_bytes = b;
          best_extent = extent;
        }
      }
      for (TensorId t : slot.members) {
        bp.tensor_cut[static_cast<size_t>(t)] = best_cut;
      }
    }
    AssignGreedyOpStrategies(&ctx, &bp, options.dp.allow_reduction_strategies);
    bp.peak_shard_bytes = StepResidentBytes(
        graph, bp.tensor_cut, f,
        [&ctx](TensorId t) -> const Shape& { return ctx.shape(t); });
    fold.Append(std::move(bp), StepBandwidth(options, i));
  }
  // The real memory constraint is the FINAL per-worker residency: intermediate groups
  // are sets of workers, each of which only ever stores its final shard.
  plan.memory_feasible =
      options.memory_budget_bytes <= 0 ||
      (!plan.steps.empty() &&
       plan.steps.back().peak_shard_bytes <=
           static_cast<double>(options.memory_budget_bytes));
  return plan;
}

// True when the steps would see at least two different bandwidths, i.e. ordering the
// factors differently can change the estimated time. All-equal (or absent) bandwidths
// scale every candidate identically, so the canonical order stays optimal.
bool BandwidthsDiffer(const PartitionOptions& options, size_t num_steps) {
  if (options.step_bandwidths.empty() || num_steps < 2) {
    return false;
  }
  const double first = StepBandwidth(options, 0);
  for (size_t i = 1; i < num_steps; ++i) {
    if (StepBandwidth(options, i) != first) {
      return true;
    }
  }
  return false;
}

}  // namespace

double LevelBandwidth(const std::vector<double>& levels, double fallback, size_t step) {
  if (levels.empty()) {
    return fallback;
  }
  return levels[std::min(step, levels.size() - 1)];
}

double StepBandwidth(const PartitionOptions& options, size_t step) {
  return LevelBandwidth(options.step_bandwidths, 0.0, step);
}

namespace {

// Candidate preference for the ordering search: a memory-feasible plan always beats an
// infeasible one; among equals, lower estimated time, then lower weighted bytes (the
// time metric when no bandwidths were given). Strict, so ties keep the earlier
// candidate -- the canonical non-increasing order stays the deterministic default.
bool PlanBeats(const PartitionPlan& a, const PartitionPlan& b) {
  if (a.memory_feasible != b.memory_feasible) {
    return a.memory_feasible;
  }
  if (a.estimated_comm_seconds != b.estimated_comm_seconds) {
    return a.estimated_comm_seconds < b.estimated_comm_seconds;
  }
  return a.total_comm_bytes < b.total_comm_bytes;
}

// Among plans that all failed the budget, the one peaking lowest is the best witness
// (and the best best-effort answer).
double FinalPeak(const PartitionPlan& plan) {
  return plan.steps.empty() ? 0.0 : plan.steps.back().peak_shard_bytes;
}

}  // namespace

PartitionPlan RecursivePartition(const Graph& graph, int num_workers,
                                 const PartitionOptions& options) {
  if (num_workers <= 1) {
    PartitionPlan plan;
    plan.num_workers = num_workers;
    plan.memory_budget_bytes = options.memory_budget_bytes;
    return plan;
  }
  return RecursivePartitionCoarse(graph, num_workers, Coarsen(graph, options.coarsen),
                                  options);
}

PartitionPlan RecursivePartitionCoarse(const Graph& graph, int num_workers,
                                       const CoarseGraph& coarse,
                                       const PartitionOptions& options) {
  if (num_workers <= 1) {
    PartitionPlan plan;
    plan.num_workers = num_workers;
    plan.memory_budget_bytes = options.memory_budget_bytes;
    return plan;
  }

  const std::vector<int> canonical = FactorizeWorkers(num_workers);
  PartitionPlan best = RunSteps(graph, num_workers, coarse, options, canonical);
  const bool budgeted = options.memory_budget_bytes > 0;
  if (!BandwidthsDiffer(options, canonical.size()) &&
      (!budgeted || best.memory_feasible)) {
    return best;
  }

  // The factor ordering matters in two situations: on a non-uniform topology the
  // coarsest step's bytes cross the slowest link (and each step's byte total depends on
  // the shapes the earlier steps left behind), and under a memory budget a different
  // ordering can be feasible where the canonical one is not (a factor applied earlier
  // shrinks extents differently, changing which cuts remain applicable later).
  // Enumerate the distinct permutations of the factor multiset (ascending start ->
  // lexicographic next_permutation covers each exactly once) and keep the best by
  // PlanBeats; ties keep the canonical non-increasing order. The permutation count is
  // tiny for realistic worker counts (<= 6 below 64 workers), but a cap bounds
  // adversarial inputs.
  constexpr int kMaxOrderings = 24;
  std::vector<int> ordering = canonical;
  std::sort(ordering.begin(), ordering.end());
  int tried = 0;
  do {
    if (ordering == canonical) {
      continue;  // already evaluated
    }
    PartitionPlan candidate = RunSteps(graph, num_workers, coarse, options, ordering);
    best.search_stats.Merge(candidate.search_stats);
    if (PlanBeats(candidate, best)) {
      const SearchStats merged = best.search_stats;
      best = std::move(candidate);
      best.search_stats = merged;
    }
    ++tried;
  } while (std::next_permutation(ordering.begin(), ordering.end()) && tried < kMaxOrderings);
  if (!budgeted || best.memory_feasible) {
    return best;
  }

  // Every constrained DP ordering overflowed. The DP's per-step cost-greedy choices can
  // paint later steps into a corner, so try the lightest-cuts plan of every ordering:
  // if one fits, return it (higher comm, but feasible -- the point of the budget); if
  // none does, return the lowest-peaking witness marked infeasible so the session can
  // report the unbeatable deficit.
  PartitionPlan lightest;
  bool have_lightest = false;
  ordering = canonical;
  std::sort(ordering.begin(), ordering.end());
  tried = 0;
  do {
    PartitionPlan candidate = MinBytesSteps(graph, num_workers, coarse, options, ordering);
    bool take;
    if (!have_lightest) {
      take = true;
    } else if (candidate.memory_feasible != lightest.memory_feasible) {
      take = candidate.memory_feasible;
    } else if (!candidate.memory_feasible) {
      take = FinalPeak(candidate) < FinalPeak(lightest);  // best witness: lowest peak
    } else {
      take = PlanBeats(candidate, lightest);
    }
    if (take) {
      candidate.search_stats = best.search_stats;  // keep the DP effort visible
      lightest = std::move(candidate);
      have_lightest = true;
    }
    ++tried;
  } while (std::next_permutation(ordering.begin(), ordering.end()) && tried < kMaxOrderings);
  if (lightest.memory_feasible || options.memory_policy == MemoryPolicy::kNone) {
    return lightest;
  }

  // Even the lightest cuts overflow the all-resident model. The session's authoritative
  // verdict is PlanPeakShardBytes (for this schedule-free plan, the liveness peak),
  // which can still fit -- only when it confirms the overflow does the repair pass
  // engage: re-search unbudgeted for the minimum-communication plan, then attach the
  // cheapest recompute/host-swap schedule that brings its liveness peak within budget
  // (memory/repair.h). The result trades overhead seconds -- never communication --
  // for memory, so a budget ladder holds comm constant while overhead grows
  // monotonically. If even a full offload cannot fit, the infeasible witness survives
  // so the session can report the unbeatable deficit plus the floor no schedule can
  // beat.
  if (PlanPeakShardBytes(graph, lightest) <= options.memory_budget_bytes) {
    return lightest;
  }
  PartitionOptions relaxed = options;
  relaxed.memory_budget_bytes = 0;
  PartitionPlan base = RecursivePartitionCoarse(graph, num_workers, coarse, relaxed);
  const RepairResult repair =
      BuildRepairSchedule(graph, base, options.memory_budget_bytes,
                          options.memory_policy, options.memory_pricing);
  if (!repair.feasible) {
    return lightest;
  }
  base.search_stats.Merge(lightest.search_stats);
  base.memory_budget_bytes = options.memory_budget_bytes;
  base.memory_feasible = true;
  base.memory_schedule = repair.schedule;
  return base;
}

}  // namespace tofu
