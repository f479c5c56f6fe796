#include "tofu/partition/flat_dp.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "tofu/memory/bytes.h"
#include "tofu/partition/search_engine.h"
#include "tofu/partition/strategy.h"

namespace tofu {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

// A tiling is the per-micro-step cut sequence of one slot (length m). Sequences are
// enumerated fully ordered: although Theorem 1 makes a *joint* swap of two whole steps
// cost-neutral, canonicalizing each slot independently would lose cross-slot pairings
// (slot A on (d0,d1) with slot B on (d1,d0) has no jointly-canonical representative), so
// the flat search must keep the order. This slightly over-counts the paper's per-tensor
// multiset figure (e.g. 4^3 ordered vs 20 multiset tilings of a 4-D tensor over 8
// workers) -- bench_table1 reports both.
using Tiling = std::vector<int>;

void EnumerateTilings(const Shape& shape, std::int64_t bytes,
                      const std::vector<int>& factors, size_t step, Shape current,
                      Tiling prefix, std::vector<Tiling>* out) {
  if (step == factors.size()) {
    out->push_back(prefix);
    return;
  }
  const int f = factors[step];
  std::vector<int> options;
  for (int d = 0; d < static_cast<int>(current.size()); ++d) {
    if (current[static_cast<size_t>(d)] >= f) {
      options.push_back(d);
    }
  }
  if (options.empty() || bytes <= kReplicateThresholdBytes) {
    options.push_back(kReplicated);
  }
  for (int cut : options) {
    Shape next = current;
    if (cut != kReplicated) {
      std::int64_t& e = next[static_cast<size_t>(cut)];
      e = (e + f - 1) / f;
    }
    Tiling seq = prefix;
    seq.push_back(cut);
    EnumerateTilings(shape, bytes, factors, step + 1, std::move(next), std::move(seq), out);
  }
}

// Strategy sequences of one unit (one choice per micro-step; kReplicatedExec always
// allowed), fully ordered for the same pairing reason.
void EnumerateStrategySeqs(int num_strategies, const std::vector<int>& factors, size_t step,
                           std::vector<int> prefix, std::vector<std::vector<int>>* out) {
  if (step == factors.size()) {
    out->push_back(prefix);
    return;
  }
  for (int choice = kReplicatedExec; choice < num_strategies; ++choice) {
    std::vector<int> seq = prefix;
    seq.push_back(choice);
    EnumerateStrategySeqs(num_strategies, factors, step + 1, std::move(seq), out);
  }
}

// Bytes of tensor `t` after the first `step` micro-steps of its tiling (each cut divides
// the size by that step's factor; no rounding), the size the cost table prices it at.
double TensorBytesAt(const Graph& graph, TensorId t, const Tiling& tiling,
                     const std::vector<int>& factors, size_t step) {
  double size = static_cast<double>(graph.tensor(t).bytes());
  for (size_t i = 0; i < step; ++i) {
    if (tiling[i] != kReplicated) {
      size /= static_cast<double>(factors[i]);
    }
  }
  return size;
}

}  // namespace

FlatDpResult RunFlatDp(const Graph& graph, const CoarseGraph& coarse,
                       const FlatDpOptions& options) {
  FlatDpResult result;
  if (options.num_workers <= 1) {
    // One worker: nothing to split, the trivial plan is the whole answer.
    result.completed = true;
    result.plan.num_workers = options.num_workers;
    return result;
  }
  const std::vector<int> factors = FactorizeWorkers(options.num_workers);
  const size_t m = factors.size();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.time_budget_seconds));

  // Per-slot tilings.
  const int num_slots = coarse.num_slots();
  std::vector<std::vector<Tiling>> slot_tilings(static_cast<size_t>(num_slots));
  for (int s = 0; s < num_slots; ++s) {
    const TensorNode& rep = graph.tensor(coarse.slots[static_cast<size_t>(s)].members[0]);
    EnumerateTilings(rep.shape, rep.bytes(), factors, 0, rep.shape, {},
                     &slot_tilings[static_cast<size_t>(s)]);
  }

  // Per-unit strategy sequences; strategies concretized once at the original shapes.
  StepContext base_ctx(graph, StepContext::InitialShapes(graph), factors[0]);
  std::vector<std::vector<std::vector<int>>> unit_seqs(coarse.units.size());
  for (size_t u = 0; u < coarse.units.size(); ++u) {
    const int n = static_cast<int>(base_ctx.Strategies(coarse.units[u].ops[0]).size());
    EnumerateStrategySeqs(n, factors, 0, {}, &unit_seqs[u]);
  }

  // Full configuration count (the paper's 20^6-per-group figure).
  for (const MacroGroup& group : coarse.groups) {
    double per_group = 1.0;
    for (int s : group.touched_slots) {
      per_group *= static_cast<double>(slot_tilings[static_cast<size_t>(s)].size());
    }
    for (int u : group.units) {
      per_group *= static_cast<double>(unit_seqs[static_cast<size_t>(u)].size());
    }
    result.configs_total += per_group;
  }

  // Joint cost of one group configuration: all micro-steps, weighted by group counts.
  // Halo slabs are sized by the tensor's original extent along the split dimension.
  auto group_config_cost = [&](const MacroGroup& group,
                               const std::vector<const Tiling*>& tiling_of_slot,
                               const std::vector<const std::vector<int>*>& seq_of_unit)
      -> double {
    auto tiling_of = [&](TensorId t) -> const Tiling& {
      return *tiling_of_slot[static_cast<size_t>(coarse.tensor_slot[static_cast<size_t>(t)])];
    };
    double total = 0.0;
    double groups_at_step = 1.0;
    for (size_t step = 0; step < m; ++step) {
      const int ways = factors[step];
      for (size_t ui = 0; ui < group.units.size(); ++ui) {
        const Unit& unit = coarse.units[static_cast<size_t>(group.units[ui])];
        const int choice = (*seq_of_unit[ui])[step];
        for (OpId op_id : unit.ops) {
          const OpNode& op = graph.op(op_id);
          const ConcreteStrategy* strat =
              choice == kReplicatedExec
                  ? nullptr
                  : &base_ctx.Strategies(op_id)[static_cast<size_t>(choice)];
          for (size_t i = 0; i < op.inputs.size(); ++i) {
            const TensorId t = op.inputs[i];
            const Tiling& tiling = tiling_of(t);
            const ConcreteInputReq& req = strat == nullptr ? kWholeInput : strat->inputs[i];
            const std::int64_t extent =
                req.kind == InputReq::Kind::kSplit
                    ? graph.tensor(t).shape[static_cast<size_t>(req.dim)]
                    : 0;
            total += groups_at_step *
                     InputCommBytes(TensorBytesAt(graph, t, tiling, factors, step), ways,
                                    req, extent, tiling[step]);
          }
          if (strat != nullptr) {
            const Tiling& tiling = tiling_of(op.output);
            total += groups_at_step *
                     OutputCommBytes(TensorBytesAt(graph, op.output, tiling, factors, step),
                                     ways, *strat, tiling[step]);
          }
        }
      }
      groups_at_step *= static_cast<double>(ways);
    }
    return total;
  };

  // Frontier DP over groups on the shared engine.
  SearchSpace space;
  space.slot_num_options.resize(static_cast<size_t>(num_slots));
  for (int s = 0; s < num_slots; ++s) {
    space.slot_num_options[static_cast<size_t>(s)] =
        static_cast<int>(slot_tilings[static_cast<size_t>(s)].size());
  }
  space.group_slots.reserve(coarse.groups.size());
  for (const MacroGroup& group : coarse.groups) {
    space.group_slots.push_back(group.touched_slots);
  }

  // Group table fill: walks the group's cells in the engine's canonical order (last
  // touched slot fastest) and writes each cell's cheapest joint choice of its units'
  // strategy sequences -- the per-group enumeration Table 1 measures, one configuration
  // at a time. Polls the deadline every 4096 configurations and stops the search once it
  // has passed.
  std::vector<const Tiling*> tiling_of_slot(static_cast<size_t>(num_slots), nullptr);
  std::int64_t since_deadline_check = 0;
  SearchEngine::GroupFillFn fill_fn = [&](int g, const std::vector<int>& num_options,
                                          double* cells, std::int64_t num_cells) {
    const MacroGroup& group = coarse.groups[static_cast<size_t>(g)];
    const std::vector<int>& touched = group.touched_slots;
    const int k = static_cast<int>(touched.size());
    const size_t num_units = group.units.size();
    std::vector<int> opts(static_cast<size_t>(k), 0);
    std::vector<size_t> odo(num_units, 0);
    std::vector<const std::vector<int>*> seqs(num_units, nullptr);
    for (std::int64_t idx = 0; idx < num_cells; ++idx) {
      for (int i = 0; i < k; ++i) {
        const size_t slot = static_cast<size_t>(touched[static_cast<size_t>(i)]);
        const size_t option = static_cast<size_t>(opts[static_cast<size_t>(i)]);
        tiling_of_slot[slot] = &slot_tilings[slot][option];
      }
      double best = kInf;
      for (bool done = false; !done;) {  // odometer over the units' sequences
        for (size_t ui = 0; ui < num_units; ++ui) {
          seqs[ui] = &unit_seqs[static_cast<size_t>(group.units[ui])][odo[ui]];
        }
        best = std::min(best, group_config_cost(group, tiling_of_slot, seqs));
        result.configs_evaluated += 1.0;
        if (++since_deadline_check >= 4096) {
          since_deadline_check = 0;
          if (Clock::now() > deadline) {
            return false;
          }
        }
        size_t pos = 0;
        while (pos < num_units) {
          if (++odo[pos] < unit_seqs[static_cast<size_t>(group.units[pos])].size()) {
            break;
          }
          odo[pos] = 0;
          ++pos;
        }
        done = pos == num_units;
      }
      cells[idx] = best;
      for (int i = k - 1; i >= 0; --i) {
        if (++opts[static_cast<size_t>(i)] < num_options[static_cast<size_t>(i)]) {
          break;
        }
        opts[static_cast<size_t>(i)] = 0;
      }
    }
    return true;
  };

  // No state cap here: the flat search either completes exactly or times out.
  SearchEngineOptions engine_options;
  engine_options.max_states = std::numeric_limits<std::int64_t>::max() / 2;
  SearchEngine engine(std::move(space), engine_options);
  SearchEngine::Result search = engine.Run(fill_fn);

  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!search.completed) {
    result.projected_seconds = result.configs_evaluated > 0
                                   ? result.elapsed_seconds * result.configs_total /
                                         result.configs_evaluated
                                   : kInf;
    return result;
  }
  result.completed = true;

  // Chosen tiling per slot, straight from the engine.
  const std::vector<int>& slot_choice = search.slot_option;

  // Assemble the plan and recost it exactly with the shared StepContext machinery, so
  // totals are directly comparable with RecursivePartition's.
  PartitionPlan plan;
  plan.num_workers = options.num_workers;
  plan.step_factors = factors;
  StepFold fold(graph, &plan);
  for (size_t step = 0; step < m; ++step) {
    BasicPlan bp;
    bp.ways = factors[step];
    bp.tensor_cut.assign(static_cast<size_t>(graph.num_tensors()), kReplicated);
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      const int slot = coarse.tensor_slot[static_cast<size_t>(t)];
      bp.tensor_cut[static_cast<size_t>(t)] =
          slot_tilings[static_cast<size_t>(slot)][static_cast<size_t>(
              slot_choice[static_cast<size_t>(slot)])][step];
    }
    StepContext ctx(graph, fold.shapes(), bp.ways);
    AssignGreedyOpStrategies(&ctx, &bp);
    bp.peak_shard_bytes = StepResidentBytes(
        graph, bp.tensor_cut, bp.ways,
        [&ctx](TensorId t) -> const Shape& { return ctx.shape(t); });
    fold.Append(std::move(bp), 0.0);
  }
  result.plan = std::move(plan);
  return result;
}

}  // namespace tofu
