// Search-engine tests: golden cost equivalence against the pre-refactor string-keyed
// DP (recorded values), over-cap degradation, SearchStats plumbing, direct engine unit cases, the plan-invariance
// contracts of dominated-option pruning and cost-table reuse (pinned plan digests), and
// an exhaustive-search oracle on seeded tiny spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "session_helpers.h"
#include "tofu/core/report.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/search_engine.h"

namespace tofu {
namespace {

// A group cost at one combination of its touched slots' options: `options[i]` is the
// option index of SearchSpace::group_slots[group][i].
using CellCostFn = std::function<double(int group, const int* options)>;

// Feeds SearchEngine::Run from a per-cell cost: each group table is filled by walking
// its cells in the engine's canonical order (last touched slot fastest) over the
// option counts the engine passes, calling `cell_fn` once per cell.
SearchEngine::Result RunCells(SearchEngine& engine, const CellCostFn& cell_fn) {
  return engine.Run([&cell_fn](int group, const std::vector<int>& num_options,
                               double* cells, std::int64_t num_cells) {
    std::vector<int> options(num_options.size(), 0);
    for (std::int64_t idx = 0; idx < num_cells; ++idx) {
      cells[idx] = cell_fn(group, options.data());
      for (int i = static_cast<int>(options.size()) - 1; i >= 0; --i) {
        if (++options[static_cast<size_t>(i)] < num_options[static_cast<size_t>(i)]) {
          break;
        }
        options[static_cast<size_t>(i)] = 0;
      }
    }
    return true;
  });
}

ModelGraph GoldenMlp() {
  MlpConfig c;
  c.layer_sizes = {512, 512, 512, 256};
  c.batch = 64;
  return BuildMlp(c);
}

ModelGraph GoldenRnn() {
  RnnConfig c;
  c.layers = 2;
  c.hidden = 512;
  c.batch = 64;
  c.timesteps = 6;
  return BuildRnn(c);
}

ModelGraph GoldenWResNet() {
  WResNetConfig c;
  c.layers = 50;
  c.width = 4;
  c.batch = 32;
  return BuildWResNet(c);
}

ModelGraph GoldenTransformer() {
  TransformerConfig c;
  c.batch = 16;
  c.seq_len = 32;
  c.d_model = 128;
  c.d_ff = 256;
  c.heads = 2;
  c.layers = 2;
  c.num_classes = 64;
  return BuildTransformer(c);
}

// Total comm bytes recorded from the PRE-refactor string-keyed engine (`pre_refactor`)
// and expected from the current engine (`engine`). Single-step searches (2 workers,
// and EqualChop at any k) are bit-identical. Multi-step recursions can legitimately
// differ where a step has several equal-cost optima: the old engine picked the winner by
// unordered_map iteration order (stdlib-dependent), the new engine canonically (lowest
// branch index). Every divergent row is equal-cost per step and CHEAPER in total -- the
// EXPECT_LE below asserts the new engine never does worse than the recorded old totals.
struct GoldenRow {
  const char* model;
  int workers;
  PartitionAlgorithm algo;
  double pre_refactor;
  double engine;
};

constexpr PartitionAlgorithm kT = PartitionAlgorithm::kTofu;
constexpr PartitionAlgorithm kI = PartitionAlgorithm::kIcml18;
constexpr PartitionAlgorithm kE = PartitionAlgorithm::kEqualChop;

const GoldenRow kGolden[] = {
    {"mlp", 2, kT, 786432, 786432},
    {"mlp", 2, kI, 1638400, 1638400},
    {"mlp", 2, kE, 786432, 786432},
    {"mlp", 4, kT, 1572864, 1572864},
    {"mlp", 4, kI, 3276800, 3276800},
    {"mlp", 4, kE, 2359296, 2359296},
    {"mlp", 8, kT, 2490368, 2359296},
    {"mlp", 8, kI, 4980736, 4915200},
    {"mlp", 8, kE, 5505024, 5505024},
    {"rnn", 2, kT, 35913736, 35913736},
    {"rnn", 2, kI, 73007360, 73007360},
    {"rnn", 2, kE, 35913736, 35913736},
    {"rnn", 4, kT, 71827480, 71827480},
    {"rnn", 4, kI, 146014720, 146014720},
    {"rnn", 4, kE, 107741208, 107741208},
    {"rnn", 8, kT, 107741240, 107741240},
    {"rnn", 8, kI, 219022080, 219022080},
    {"rnn", 8, kE, 251396152, 251396152},
    {"wresnet", 2, kT, 2346550088, 2346550088},
    {"wresnet", 2, kI, 11885077632, 11885077632},
    {"wresnet", 2, kE, 2346550088, 2346550088},
    {"wresnet", 4, kT, 4693753496, 4693548696},
    {"wresnet", 4, kI, 23770157312, 23770156288},
    {"wresnet", 4, kE, 6550243800, 6550243800},
    {"wresnet", 8, kT, 7042263544, 7041444344},
    {"wresnet", 8, kI, 35655241088, 35655236992},
    {"wresnet", 8, kE, 14625937144, 14625937144},
    {"transformer", 2, kT, 2643968, 2643968},
    {"transformer", 2, kI, 10105856, 10105856},
    {"transformer", 2, kE, 2643968, 2643968},
    {"transformer", 4, kT, 6158336, 5955584},
    {"transformer", 4, kI, 20682752, 20549632},
    {"transformer", 4, kE, 7931904, 7931904},
    {"transformer", 8, kT, 11413504, 10602496},
    {"transformer", 8, kI, 32201728, 31669248},
    {"transformer", 8, kE, 18507776, 18507776},
};

TEST(SearchEngineGolden, MatchesRecordedCosts) {
  ModelGraph models[] = {GoldenMlp(), GoldenRnn(), GoldenWResNet(), GoldenTransformer()};
  const char* names[] = {"mlp", "rnn", "wresnet", "transformer"};
  for (const GoldenRow& row : kGolden) {
    const ModelGraph* model = nullptr;
    for (size_t i = 0; i < 4; ++i) {
      if (row.model == std::string(names[i])) {
        model = &models[i];
      }
    }
    ASSERT_NE(model, nullptr);
    Session session(DeviceTopology::Uniform(row.workers));
    PartitionPlan plan = PlanOrFail(session, model->graph, row.algo);
    EXPECT_DOUBLE_EQ(plan.total_comm_bytes, row.engine)
        << row.model << " x" << row.workers << " " << AlgorithmName(row.algo);
    // Never worse than the pre-refactor engine (equal-cost ties may resolve cheaper).
    EXPECT_LE(plan.total_comm_bytes, row.pre_refactor + 1.0)
        << row.model << " x" << row.workers << " " << AlgorithmName(row.algo);
  }
}

TEST(SearchEngineStats, SurfacedThroughPlanAndReport) {
  ModelGraph model = GoldenMlp();
  Session session(DeviceTopology::Uniform(8));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  EXPECT_GT(plan.search_stats.states_explored, 0);
  EXPECT_GT(plan.search_stats.max_frontier_states, 0);
  EXPECT_GT(plan.search_stats.cost_table_entries, 0);
  EXPECT_GE(plan.search_stats.wall_seconds, 0.0);
  EXPECT_TRUE(plan.search_stats.exact);
  const std::string summary = PlanSummary(model.graph, plan);
  EXPECT_NE(summary.find("search:"), std::string::npos);

  // Greedy baselines run no DP: their stats stay zeroed.
  PartitionPlan greedy = PlanOrFail(session, model.graph, PartitionAlgorithm::kDataParallel);
  EXPECT_EQ(greedy.search_stats.states_explored, 0);
}

TEST(SearchEngineBeam, DegradesInsteadOfFailing) {
  ModelGraph model = GoldenMlp();
  PartitionOptions exact_options;
  PartitionPlan exact = RecursivePartition(model.graph, 8, exact_options);

  PartitionOptions beam_options;
  beam_options.dp.max_states = 8;  // force the cap immediately
  PartitionPlan beam = RecursivePartition(model.graph, 8, beam_options);
  EXPECT_FALSE(beam.search_stats.exact);
  // The beam keeps a valid (if approximate) plan: well-formed and never better than
  // the exact optimum.
  EXPECT_GE(beam.total_comm_bytes, exact.total_comm_bytes - 1.0);
  ASSERT_EQ(beam.steps.size(), exact.steps.size());
  for (const BasicPlan& step : beam.steps) {
    EXPECT_EQ(step.tensor_cut.size(), static_cast<size_t>(model.graph.num_tensors()));
  }
}

// Direct engine cases: known-minimum chains exercised without the partition layer.
TEST(SearchEngineUnit, PicksCheapestOptionOnOneSlot) {
  SearchSpace space;
  space.slot_num_options = {2};
  space.group_slots = {{0}};
  SearchEngine engine(std::move(space), {});
  SearchEngine::Result res =
      RunCells(engine, [](int, const int* o) { return o[0] == 0 ? 5.0 : 3.0; });
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.best_cost, 3.0);
  ASSERT_EQ(res.slot_option.size(), 1u);
  EXPECT_EQ(res.slot_option[0], 1);
  EXPECT_EQ(res.stats.states_explored, 2);
}

TEST(SearchEngineUnit, ChainDpFindsJointMinimum) {
  // Slots 0,1,2; group A touches (0,1), group B touches (1,2). The joint optimum
  // requires remembering slot 1 across the groups: 0->1, 1->0, 2->1 at cost 0.
  SearchSpace space;
  space.slot_num_options = {2, 2, 2};
  space.group_slots = {{0, 1}, {1, 2}};
  SearchEngine engine(std::move(space), {});
  SearchEngine::Result res = RunCells(engine, [](int g, const int* o) {
    if (g == 0) {
      return (o[0] == 1 ? 0.0 : 10.0) + (o[1] == 0 ? 0.0 : 1.0);
    }
    return (o[0] == 0 ? 0.0 : 5.0) + (o[1] == 1 ? 0.0 : 2.0);
  });
  EXPECT_DOUBLE_EQ(res.best_cost, 0.0);
  EXPECT_EQ(res.slot_option, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(res.stats.states_explored, 8);  // 4 cells per group
  EXPECT_EQ(res.stats.max_frontier_states, 4);
}

TEST(SearchEngineUnit, SingleOptionAndUntouchedSlotsDefaultToZero) {
  // Slot 1 has one option (zero key bits); slot 2 is touched by no group.
  SearchSpace space;
  space.slot_num_options = {3, 1, 4};
  space.group_slots = {{0, 1}};
  SearchEngine engine(std::move(space), {});
  SearchEngine::Result res = RunCells(engine, [](int, const int* o) {
    return o[0] == 2 ? 1.0 : 7.0;  // slot 1's only option rides along
  });
  EXPECT_DOUBLE_EQ(res.best_cost, 1.0);
  EXPECT_EQ(res.slot_option, (std::vector<int>{2, 0, 0}));
}

TEST(SearchEngineUnit, OverCapGroupIsChargedOnTheCappedSubset) {
  // 13 slots x 2 options touched by ONE group: the frontier (8192) exceeds the cap, so
  // entering slots keep their lowest-index options until the capped frontier reaches
  // 16 -- work is bounded by the cap, not by the 8192-cell cross product.
  SearchSpace space;
  space.slot_num_options.assign(13, 2);
  space.group_slots.push_back({});
  for (int s = 0; s < 13; ++s) {
    space.group_slots[0].push_back(s);
  }
  SearchEngineOptions options;
  options.max_states = 16;
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res = RunCells(engine, [](int, const int* o) {
    double c = 0.0;
    for (int i = 0; i < 13; ++i) {
      c += o[i] == 1 ? 1.0 : 0.0;
    }
    return c;
  });
  EXPECT_TRUE(res.completed);
  EXPECT_FALSE(res.stats.exact);
  EXPECT_LE(res.stats.cost_table_entries, options.max_states);
  EXPECT_LE(res.stats.states_explored, res.stats.max_frontier_states);
  EXPECT_EQ(res.tables, nullptr);  // capped tables index a different space
  // Option 0 always survives the cap: the all-zeros optimum is found anyway.
  EXPECT_DOUBLE_EQ(res.best_cost, 0.0);
  // The fill is told the capped counts: slots 0-3 keep both options, 4-12 only one.
  std::vector<int> counts;
  engine.Run([&counts](int, const std::vector<int>& num_options, double* cells,
                       std::int64_t num_cells) {
    counts = num_options;
    std::fill(cells, cells + num_cells, 0.0);
    return true;
  });
  EXPECT_EQ(counts, (std::vector<int>{2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1}));
}

// Memory-constrained engine cases: SearchSpace::slot_option_bytes + memory_budget.
TEST(SearchEngineUnit, BudgetPrunesToTheCheapestFeasibleAssignment) {
  // Slot 0: option 0 costs 1 but weighs 100; option 1 costs 5 and weighs 10.
  // Unconstrained picks option 0; a budget of 50 forces option 1.
  SearchSpace space;
  space.slot_num_options = {2};
  space.group_slots = {{0}};
  space.slot_option_bytes = {{100.0, 10.0}};
  auto cost = [](int, const int* o) { return o[0] == 0 ? 1.0 : 5.0; };

  SearchSpace unconstrained = space;
  SearchEngine free_engine(std::move(unconstrained), {});
  SearchEngine::Result free_res = RunCells(free_engine, cost);
  EXPECT_EQ(free_res.slot_option[0], 0);
  EXPECT_DOUBLE_EQ(free_res.best_bytes, 0.0);  // no budget: bytes not tracked

  SearchEngineOptions options;
  options.memory_budget = 50.0;
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res = RunCells(engine, cost);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.slot_option[0], 1);
  EXPECT_DOUBLE_EQ(res.best_cost, 5.0);
  EXPECT_DOUBLE_EQ(res.best_bytes, 10.0);
  EXPECT_DOUBLE_EQ(res.min_possible_bytes, 10.0);
  EXPECT_EQ(res.stats.memory_pruned_states, 1);
}

TEST(SearchEngineUnit, BudgetInfeasibilityIsProvedNotSearched) {
  SearchSpace space;
  space.slot_num_options = {2, 2};
  space.group_slots = {{0}, {1}};
  space.slot_option_bytes = {{40.0, 30.0}, {25.0, 35.0}};  // lightest total: 55
  SearchEngineOptions options;
  options.memory_budget = 50.0;
  SearchEngine engine(std::move(space), options);
  int calls = 0;
  SearchEngine::Result res = RunCells(engine, [&calls](int, const int*) {
    ++calls;
    return 1.0;
  });
  EXPECT_FALSE(res.feasible);
  EXPECT_DOUBLE_EQ(res.min_possible_bytes, 55.0);
  EXPECT_EQ(calls, 0);  // infeasibility came from the per-slot lower bound, for free
}

TEST(SearchEngineUnit, BudgetLowerBoundPrunesAcrossSlots) {
  // Slot 0 branches first; its heavy option (60) is individually under the 70 budget
  // but cannot fit together with slot 1's lightest option (20), so it must be pruned
  // AT BRANCH TIME -- waiting until slot 1 enters would explore a dead state.
  SearchSpace space;
  space.slot_num_options = {2, 2};
  space.group_slots = {{0}, {1}};
  space.slot_option_bytes = {{60.0, 30.0}, {20.0, 25.0}};
  SearchEngineOptions options;
  options.memory_budget = 70.0;
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res = RunCells(engine, [](int g, const int* o) {
    return g == 0 ? (o[0] == 0 ? 0.0 : 9.0) : 0.0;  // the heavy option is the cheap one
  });
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.slot_option, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(res.best_cost, 9.0);
  EXPECT_DOUBLE_EQ(res.best_bytes, 50.0);
  EXPECT_EQ(res.stats.memory_pruned_states, 1);
}

TEST(SearchEngineUnit, EqualCostMergesPreferTheLighterState) {
  // Both options of slot 0 cost the same; unconstrained keeps the first (canonical),
  // the budgeted engine keeps the lighter -- maximizing surviving completions.
  SearchSpace space;
  space.slot_num_options = {2, 2};
  space.group_slots = {{0}, {1}};  // slot 0 leaves after group 0: projection merges
  space.slot_option_bytes = {{80.0, 20.0}, {10.0, 10.0}};
  auto cost = [](int, const int*) { return 1.0; };

  SearchSpace unconstrained = space;
  SearchEngine free_engine(std::move(unconstrained), {});
  EXPECT_EQ(RunCells(free_engine, cost).slot_option[0], 0);  // canonical first-in-branch-order

  SearchEngineOptions options;
  options.memory_budget = 1000.0;  // loose: nothing prunes, only tie-breaks change
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res = RunCells(engine, cost);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.slot_option[0], 1);
  EXPECT_DOUBLE_EQ(res.best_bytes, 30.0);
  EXPECT_EQ(res.stats.memory_pruned_states, 0);
}

TEST(SearchEngineUnit, UntouchedSlotBytesChargeAgainstTheBudget) {
  // Slot 1 is touched by no group, so it stays at option 0 -- but its 90 bytes are
  // still resident and must count: only slot 0's light option fits beside it.
  SearchSpace space;
  space.slot_num_options = {2, 1};
  space.group_slots = {{0}};
  space.slot_option_bytes = {{50.0, 5.0}, {90.0}};
  SearchEngineOptions options;
  options.memory_budget = 100.0;
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res = RunCells(engine, [](int, const int* o) {
    return o[0] == 0 ? 0.0 : 3.0;
  });
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.slot_option, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(res.best_bytes, 95.0);
  EXPECT_DOUBLE_EQ(res.min_possible_bytes, 95.0);
}

TEST(SearchEngineUnit, RoundingAtTheBudgetEdgeReportsInsteadOfAborting) {
  // The budget equals the lightest total, and fractional byte sums round differently
  // along the branch sequence (0.1 + 0.2 + 0.3 vs the remaining-minimum bound): the
  // last live cell can die. The search must return a verdict, not abort.
  SearchSpace space;
  space.slot_num_options = {2, 2, 2};
  space.group_slots = {{0}, {1}, {2}};
  space.slot_option_bytes = {{0.1, 1.0}, {0.2, 1.0}, {0.3, 1.0}};
  SearchEngineOptions options;
  options.memory_budget = 0.1 + 0.2 + 0.3;
  SearchEngine engine(std::move(space), options);
  SearchEngine::Result res =
      RunCells(engine, [](int, const int* o) { return o[0] == 0 ? 1.0 : 0.0; });
  EXPECT_TRUE(res.completed);
  if (res.feasible) {
    EXPECT_LE(res.best_bytes, options.memory_budget);
  } else {
    EXPECT_EQ(res.slot_option, (std::vector<int>{0, 0, 0}));
  }
}

// ------------------------------------------------- dominated-option pruning
// The pruning contract (SearchEngineOptions::prune_dominated, docs/search.md): plans,
// costs, and every serialized SearchStats counter are invariant; only the diagnostic
// dominated_pruned_states moves. Pinned digests catch a silent semantic drift in
// either the pruned or the unpruned path at worker counts that exercise deep
// multi-axis lattices.
TEST(SearchEngineDominance, PruningNeverChangesThePlanGoldens) {
  struct Row {
    int workers;
    const char* digest;
  };
  const Row kRows[] = {{8, "3ff4a22d1cbdf754"},
                       {32, "699f97e21d15c2fa"},
                       {64, "c1f0490322246ce3"}};
  ModelGraph model = GoldenWResNet();
  for (const Row& row : kRows) {
    for (bool prune : {true, false}) {
      PartitionOptions options;
      options.dp.prune_dominated = prune;
      PartitionPlan plan = RecursivePartition(model.graph, row.workers, options);
      EXPECT_EQ(PlanDigest(plan), row.digest)
          << "workers=" << row.workers << " prune=" << prune;
      if (prune) {
        EXPECT_GT(plan.search_stats.dominated_pruned_states, 0) << "workers=" << row.workers;
      } else {
        EXPECT_EQ(plan.search_stats.dominated_pruned_states, 0);
      }
    }
  }
}

TEST(SearchEngineDominance, SyntheticDominatedOptionIsPrunedWithoutChangingResult) {
  // Slot 0's option 2 is dominated by option 0 in BOTH tables touching the slot
  // (6 >= 5 alone, and 2 <= 2 pointwise under every slot-1 completion); option 1 is
  // the true winner. Pruning must skip option-2 states yet return the identical
  // result, and the serialized effort counters must not move (they are
  // digest-covered).
  SearchSpace space;
  space.slot_num_options = {3, 2};
  space.group_slots = {{0}, {0, 1}};
  const double g0[] = {5.0, 1.0, 6.0};
  const double a[] = {2.0, 3.0, 2.0};
  const double b[] = {0.0, 10.0};
  CellCostFn cost = [&](int group, const int* o) {
    return group == 0 ? g0[o[0]] : a[o[0]] + b[o[1]];
  };
  SearchEngineOptions pruned_options;  // prune_dominated defaults on
  SearchEngineOptions unpruned_options;
  unpruned_options.prune_dominated = false;
  SearchEngine pruned_engine(space, pruned_options);
  SearchEngine unpruned_engine(space, unpruned_options);
  SearchEngine::Result pruned = RunCells(pruned_engine, cost);
  SearchEngine::Result unpruned = RunCells(unpruned_engine, cost);

  EXPECT_EQ(pruned.slot_option, (std::vector<int>{1, 0}));
  EXPECT_EQ(pruned.slot_option, unpruned.slot_option);
  EXPECT_DOUBLE_EQ(pruned.best_cost, 4.0);
  EXPECT_DOUBLE_EQ(pruned.best_cost, unpruned.best_cost);
  EXPECT_GT(pruned.stats.dominated_pruned_states, 0);
  EXPECT_EQ(unpruned.stats.dominated_pruned_states, 0);
  EXPECT_EQ(pruned.stats.states_explored, unpruned.stats.states_explored);
  EXPECT_EQ(pruned.stats.max_frontier_states, unpruned.stats.max_frontier_states);
  EXPECT_EQ(pruned.stats.cost_table_entries, unpruned.stats.cost_table_entries);
}

TEST(SearchEngineReuse, ImportedTablesAreCountedAndChangeNothing) {
  // Re-running the same space with the first search's exported tables must skip the
  // refills (reused_table_entries) while reporting identical effort and result --
  // the invariant that makes the step-table cache invisible in plan serializations.
  SearchSpace space;
  space.slot_num_options = {3, 2};
  space.group_slots = {{0}, {0, 1}};
  int fills = 0;
  CellCostFn cost = [&fills](int group, const int* o) {
    ++fills;
    return group == 0 ? 1.0 * o[0] : 0.5 * o[0] + 2.0 * o[1];
  };
  SearchEngine cold_engine(space, {});
  SearchEngine::Result cold = RunCells(cold_engine, cost);
  ASSERT_NE(cold.tables, nullptr);
  const int cold_fills = fills;

  SearchEngineOptions warm_options;
  warm_options.reuse_tables = cold.tables;
  SearchEngine warm_engine(space, warm_options);
  SearchEngine::Result warm = RunCells(warm_engine, cost);
  EXPECT_EQ(fills, cold_fills) << "imported tables must not be refilled";
  EXPECT_GT(warm.stats.reused_table_entries, 0);
  EXPECT_EQ(cold.stats.reused_table_entries, 0);
  EXPECT_EQ(warm.slot_option, cold.slot_option);
  EXPECT_DOUBLE_EQ(warm.best_cost, cold.best_cost);
  EXPECT_EQ(warm.stats.states_explored, cold.stats.states_explored);
  EXPECT_EQ(warm.stats.cost_table_entries, cold.stats.cost_table_entries);
}

TEST(SearchEngineUnit, FillThatReturnsFalseStopsTheSearch) {
  SearchSpace space;
  space.slot_num_options = {2, 2, 2};
  space.group_slots = {{0}, {0, 1}, {1, 2}};
  SearchEngine engine(std::move(space), {});
  std::vector<int> filled;
  SearchEngine::Result res = engine.Run(
      [&filled](int group, const std::vector<int>&, double* cells, std::int64_t num_cells) {
        filled.push_back(group);
        std::fill(cells, cells + num_cells, 1.0);
        return group != 1;
      });
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.tables, nullptr);
  EXPECT_EQ(filled, (std::vector<int>{0, 1}));  // no fill runs after the stop
  EXPECT_EQ(res.stats.states_explored, 2);      // only the completed group counts
}

TEST(SearchEngineUnit, WideSlotWinnersPastByteRange) {
  // A 300-option slot: the winning coordinate (257) does not fit in a byte.
  SearchSpace space;
  space.slot_num_options = {300, 2};
  space.group_slots = {{0}, {0, 1}};
  auto cost = [](int g, const int* o) {
    return g == 0 ? (o[0] == 257 ? 0.0 : 1.0) : (o[1] == 1 ? 0.0 : 2.0);
  };
  SearchEngine engine(std::move(space), {});
  SearchEngine::Result table = RunCells(engine, cost);
  EXPECT_TRUE(table.completed);
  EXPECT_DOUBLE_EQ(table.best_cost, 0.0);
  EXPECT_EQ(table.slot_option, (std::vector<int>{257, 1}));
}

TEST(SearchEngineUnit, OverCapBudgetedSearchStaysWithinBudgetOrSaysInfeasible) {
  // 13 two-option slots in one group, capped at 16 states: slots 0-3 keep both
  // options, slots 4-12 only option 0.
  auto make_space = [](double bytes0, double bytes1) {
    SearchSpace space;
    space.slot_num_options.assign(13, 2);
    space.group_slots.push_back({});
    for (int s = 0; s < 13; ++s) {
      space.group_slots[0].push_back(s);
      space.slot_option_bytes.push_back({bytes0, bytes1});
    }
    return space;
  };
  auto cost = [](int, const int* o) {
    double c = 0.0;
    for (int i = 0; i < 13; ++i) {
      c += o[i] == 0 ? 1.0 : 0.0;
    }
    return c;
  };
  SearchEngineOptions options;
  options.max_states = 16;

  // Option 0 is light: the capped subset fits, so the answer must honor the budget.
  options.memory_budget = 13.0 + 2.0 * 4.0;
  SearchEngine light(make_space(1.0, 3.0), options);
  SearchEngine::Result fits = RunCells(light, cost);
  EXPECT_FALSE(fits.stats.exact);
  ASSERT_TRUE(fits.feasible);
  EXPECT_LE(fits.best_bytes, options.memory_budget);
  double bytes = 0.0;
  for (int o : fits.slot_option) {
    bytes += o == 0 ? 1.0 : 3.0;
  }
  EXPECT_DOUBLE_EQ(bytes, fits.best_bytes);
  EXPECT_DOUBLE_EQ(fits.best_cost, 9.0);  // slots 0-3 take the free option 1

  // Option 0 is heavy: the full space fits (all option 1), the capped subset cannot.
  options.memory_budget = 13.0 * 1.0 + 4.0;
  SearchEngine heavy(make_space(5.0, 1.0), options);
  SearchEngine::Result none = RunCells(heavy, cost);
  EXPECT_FALSE(none.stats.exact);
  EXPECT_FALSE(none.feasible);
}

// ------------------------------------------------------ exhaustive oracle
// Seeded tiny spaces checked against brute force over every assignment. Without a
// binding budget the sweep is an exact DP,
// and its tie-break is pinned: minimize cost (then bytes when budgeted), and among
// equal optima take the lexicographically smallest assignment comparing slots in the
// REVERSE of the projection sequence (slots branch in group order, ascending id within
// a group; the newest-branched slot leaving at a group is projected first). Under a
// tight budget the sweep keeps one state per residue, so it must match brute-force
// feasibility and stay within budget, but may miss the optimum (docs/search.md,
// "Memory-constrained search").
struct TinySpace {
  SearchSpace space;
  std::vector<std::vector<double>> table;  // per group, mixed radix, last slot fastest
  std::vector<int> compare_order;          // reverse projection sequence
};

TinySpace MakeTinySpace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  TinySpace t;
  const int slots = pick(1, 6);
  for (int s = 0; s < slots; ++s) {
    const int n = pick(1, 3);
    t.space.slot_num_options.push_back(n);
    t.space.slot_option_bytes.emplace_back();
    for (int o = 0; o < n; ++o) {
      t.space.slot_option_bytes.back().push_back(pick(1, 4));
    }
  }
  const int groups = pick(1, 5);
  for (int g = 0; g < groups; ++g) {
    std::vector<int> touched;
    std::int64_t cells = 1;
    for (int s = 0; s < slots; ++s) {
      if (pick(0, 1) == 1) {
        touched.push_back(s);
        cells *= t.space.slot_num_options[static_cast<size_t>(s)];
      }
    }
    t.space.group_slots.push_back(touched);
    t.table.emplace_back();
    for (std::int64_t c = 0; c < cells; ++c) {
      t.table.back().push_back(pick(0, 2));
    }
  }
  // Projection sequence: per group, leaving slots newest-branched first.
  std::vector<int> first(static_cast<size_t>(slots), -1);
  std::vector<int> last(static_cast<size_t>(slots), -1);
  std::vector<int> branch_pos(static_cast<size_t>(slots), -1);
  int next_pos = 0;
  for (int g = 0; g < groups; ++g) {
    for (int s : t.space.group_slots[static_cast<size_t>(g)]) {
      if (first[static_cast<size_t>(s)] < 0) {
        first[static_cast<size_t>(s)] = g;
        branch_pos[static_cast<size_t>(s)] = next_pos++;
      }
      last[static_cast<size_t>(s)] = g;
    }
  }
  std::vector<int> projection;
  for (int g = 0; g < groups; ++g) {
    std::vector<int> leaving;
    for (int s : t.space.group_slots[static_cast<size_t>(g)]) {
      if (last[static_cast<size_t>(s)] == g) {
        leaving.push_back(s);
      }
    }
    std::sort(leaving.begin(), leaving.end(), [&](int a, int b) {
      return branch_pos[static_cast<size_t>(a)] > branch_pos[static_cast<size_t>(b)];
    });
    projection.insert(projection.end(), leaving.begin(), leaving.end());
  }
  t.compare_order.assign(projection.rbegin(), projection.rend());
  return t;
}

double TinyGroupCost(const TinySpace& t, int g, const int* o) {
  const std::vector<int>& touched = t.space.group_slots[static_cast<size_t>(g)];
  std::int64_t idx = 0;
  for (size_t i = 0; i < touched.size(); ++i) {
    idx = idx * t.space.slot_num_options[static_cast<size_t>(touched[i])] + o[i];
  }
  return t.table[static_cast<size_t>(g)][static_cast<size_t>(idx)];
}

// Cost and bytes of one full assignment (untouched slots must be at option 0).
std::pair<double, double> TinyEvaluate(const TinySpace& t, const std::vector<int>& assign) {
  double cost = 0.0;
  for (size_t g = 0; g < t.space.group_slots.size(); ++g) {
    std::vector<int> o;
    for (int s : t.space.group_slots[g]) {
      o.push_back(assign[static_cast<size_t>(s)]);
    }
    cost += TinyGroupCost(t, static_cast<int>(g), o.data());
  }
  double bytes = 0.0;
  for (size_t s = 0; s < assign.size(); ++s) {
    bytes += t.space.slot_option_bytes[s][static_cast<size_t>(assign[s])];
  }
  return {cost, bytes};
}

TEST(SearchEngineOracle, MatchesExhaustiveSearchOnTinySpaces) {
  int tight_cases = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const TinySpace t = MakeTinySpace(seed);
    const int slots = static_cast<int>(t.space.slot_num_options.size());
    std::vector<char> touched(static_cast<size_t>(slots), 0);
    for (const std::vector<int>& group : t.space.group_slots) {
      for (int s : group) {
        touched[static_cast<size_t>(s)] = 1;
      }
    }
    // Every assignment of the touched slots, with its cost and bytes.
    std::vector<std::vector<int>> assignments;
    std::vector<int> assign(static_cast<size_t>(slots), 0);
    for (;;) {
      assignments.push_back(assign);
      int s = slots - 1;
      for (; s >= 0; --s) {
        if (touched[static_cast<size_t>(s)] &&
            ++assign[static_cast<size_t>(s)] < t.space.slot_num_options[static_cast<size_t>(s)]) {
          break;
        }
        assign[static_cast<size_t>(s)] = 0;
      }
      if (s < 0) {
        break;
      }
    }
    double max_bytes = 0.0;
    double min_bytes = std::numeric_limits<double>::infinity();
    for (const std::vector<int>& a : assignments) {
      max_bytes = std::max(max_bytes, TinyEvaluate(t, a).second);
      min_bytes = std::min(min_bytes, TinyEvaluate(t, a).second);
    }
    std::mt19937_64 rng(seed * 7919);
    const double tight = min_bytes - 1.0 + static_cast<double>(rng() % 6);
    for (double budget : {0.0, max_bytes, tight}) {
      const bool exact_rules = budget == 0.0 || budget >= max_bytes;
      // Brute force: best feasible assignment under the oracle's order.
      const std::vector<int>* best = nullptr;
      std::pair<double, double> best_eval;
      for (const std::vector<int>& a : assignments) {
        const std::pair<double, double> e = TinyEvaluate(t, a);
        if (budget > 0.0 && e.second > budget) {
          continue;
        }
        bool better = best == nullptr || e.first < best_eval.first;
        if (!better && e.first == best_eval.first) {
          if (budget > 0.0 && e.second != best_eval.second) {
            better = e.second < best_eval.second;
          } else {
            for (int s : t.compare_order) {
              if (a[static_cast<size_t>(s)] != (*best)[static_cast<size_t>(s)]) {
                better = a[static_cast<size_t>(s)] < (*best)[static_cast<size_t>(s)];
                break;
              }
            }
          }
        }
        if (better) {
          best = &a;
          best_eval = e;
        }
      }
      tight_cases += exact_rules ? 0 : 1;
      SearchEngineOptions options;
      options.memory_budget = budget;
      options.prune_dominated = seed % 2 == 0;
      SearchEngine engine(t.space, options);
      const SearchEngine::Result table =
          RunCells(engine, [&t](int g, const int* o) { return TinyGroupCost(t, g, o); });
      const std::string where = "seed " + std::to_string(seed) + " budget " +
                                std::to_string(budget);
      ASSERT_TRUE(table.completed) << where;
      ASSERT_EQ(table.feasible, best != nullptr) << where;
      if (best == nullptr) {
        continue;
      }
      const std::pair<double, double> got = TinyEvaluate(t, table.slot_option);
      EXPECT_DOUBLE_EQ(table.best_cost, got.first) << where;
      if (budget > 0.0) {
        EXPECT_DOUBLE_EQ(table.best_bytes, got.second) << where;
        EXPECT_LE(table.best_bytes, budget) << where;
      }
      if (exact_rules) {
        EXPECT_EQ(table.slot_option, *best) << where;
      } else {
        EXPECT_GE(table.best_cost, best_eval.first) << where;
      }
    }
  }
  EXPECT_GT(tight_cases, 100);
}

}  // namespace
}  // namespace tofu
