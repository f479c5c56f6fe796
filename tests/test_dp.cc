// DP search tests: optimality against exhaustive enumeration on small graphs,
// determinism, plan well-formedness, the reduction-strategy toggle, and agreement of the
// precompiled step evaluator with StepContext's recost.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/coarsen.h"
#include "tofu/partition/dp.h"
#include "tofu/partition/recursive.h"

namespace tofu {
namespace {

// Exhaustive minimum over every slot-cut assignment; per-op strategies are chosen by
// argmin given the cuts (valid because op strategies are independent given cuts).
double BruteForceMin(const Graph& g, const CoarseGraph& cg, int ways,
                     bool allow_reduction = true) {
  StepContext ctx(g, StepContext::InitialShapes(g), ways);
  std::vector<std::vector<int>> options(static_cast<size_t>(cg.num_slots()));
  for (int s = 0; s < cg.num_slots(); ++s) {
    options[static_cast<size_t>(s)] = ctx.CutOptions(cg.slots[static_cast<size_t>(s)].members[0]);
  }
  std::vector<size_t> odo(static_cast<size_t>(cg.num_slots()), 0);
  std::vector<int> cuts(static_cast<size_t>(g.num_tensors()), kReplicated);
  double best = std::numeric_limits<double>::infinity();
  bool done = false;
  while (!done) {
    for (int s = 0; s < cg.num_slots(); ++s) {
      const int cut = options[static_cast<size_t>(s)][odo[static_cast<size_t>(s)]];
      for (TensorId t : cg.slots[static_cast<size_t>(s)].members) {
        cuts[static_cast<size_t>(t)] = cut;
      }
    }
    double total = 0.0;
    for (OpId op = 0; op < g.num_ops(); ++op) {
      double op_best = ctx.OpCommBytes(op, kReplicatedExec, cuts);
      const int n = static_cast<int>(ctx.Strategies(op).size());
      for (int sidx = 0; sidx < n; ++sidx) {
        if (!allow_reduction && ctx.Strategies(op)[static_cast<size_t>(sidx)].is_reduction) {
          continue;
        }
        if (ctx.Applicable(op, sidx)) {
          op_best = std::min(op_best, ctx.OpCommBytes(op, sidx, cuts));
        }
      }
      total += op_best;
    }
    best = std::min(best, total);
    size_t pos = 0;
    while (pos < odo.size()) {
      if (++odo[pos] < options[pos].size()) {
        break;
      }
      odo[pos] = 0;
      ++pos;
    }
    done = pos == odo.size();
  }
  return best;
}

ModelGraph TinyMlp() {
  MlpConfig config;
  config.layer_sizes = {64, 48, 10};
  config.batch = 16;
  config.with_bias = false;
  return BuildMlp(config);
}

TEST(Dp, MatchesBruteForceOnTinyMlp) {
  ModelGraph model = TinyMlp();
  CoarseGraph cg = Coarsen(model.graph);
  ASSERT_LE(cg.num_slots(), 16) << "fixture grew too large for exhaustive search";

  StepContext ctx(model.graph, StepContext::InitialShapes(model.graph), 2);
  DpResult dp = RunStepDp(&ctx, cg, {});
  const double brute = BruteForceMin(model.graph, cg, 2);
  EXPECT_NEAR(dp.plan.comm_bytes, brute, 1.0);
  EXPECT_LE(dp.plan.comm_bytes, brute + 1.0);  // never worse than exhaustive
}

TEST(Dp, MatchesBruteForceWithoutReductions) {
  ModelGraph model = TinyMlp();
  CoarseGraph cg = Coarsen(model.graph);
  StepContext ctx(model.graph, StepContext::InitialShapes(model.graph), 2);
  DpOptions options;
  options.allow_reduction_strategies = false;
  DpResult dp = RunStepDp(&ctx, cg, options);
  const double brute = BruteForceMin(model.graph, cg, 2, /*allow_reduction=*/false);
  EXPECT_NEAR(dp.plan.comm_bytes, brute, 1.0);
}

TEST(Dp, MatchesBruteForceAtFourWays) {
  ModelGraph model = TinyMlp();
  CoarseGraph cg = Coarsen(model.graph);
  StepContext ctx(model.graph, StepContext::InitialShapes(model.graph), 4);
  DpResult dp = RunStepDp(&ctx, cg, {});
  const double brute = BruteForceMin(model.graph, cg, 4);
  EXPECT_NEAR(dp.plan.comm_bytes, brute, 1.0);
}

TEST(Dp, PlanIsWellFormed) {
  ModelGraph model = TinyMlp();
  const Graph& g = model.graph;
  CoarseGraph cg = Coarsen(g);
  StepContext ctx(g, StepContext::InitialShapes(g), 2);
  DpResult dp = RunStepDp(&ctx, cg, {});
  const BasicPlan& plan = dp.plan;
  ASSERT_EQ(plan.tensor_cut.size(), static_cast<size_t>(g.num_tensors()));
  ASSERT_EQ(plan.op_strategy.size(), static_cast<size_t>(g.num_ops()));

  for (TensorId t = 0; t < g.num_tensors(); ++t) {
    const int cut = plan.tensor_cut[static_cast<size_t>(t)];
    if (cut != kReplicated) {
      ASSERT_LT(cut, g.tensor(t).rank());
      EXPECT_GE(g.tensor(t).shape[static_cast<size_t>(cut)], 2);
    }
    // Slot consistency: all members share the slot's cut.
    const int slot = cg.tensor_slot[static_cast<size_t>(t)];
    EXPECT_EQ(cut,
              plan.tensor_cut[static_cast<size_t>(cg.slots[static_cast<size_t>(slot)].members[0])]);
  }
  for (OpId op = 0; op < g.num_ops(); ++op) {
    const int sidx = plan.op_strategy[static_cast<size_t>(op)];
    if (sidx != kReplicatedExec) {
      EXPECT_LT(sidx, static_cast<int>(ctx.Strategies(op).size()));
      EXPECT_TRUE(ctx.Applicable(op, sidx));
    }
  }
}

TEST(Dp, DeterministicAcrossRuns) {
  ModelGraph model = TinyMlp();
  CoarseGraph cg = Coarsen(model.graph);
  StepContext ctx1(model.graph, StepContext::InitialShapes(model.graph), 2);
  StepContext ctx2(model.graph, StepContext::InitialShapes(model.graph), 2);
  DpResult a = RunStepDp(&ctx1, cg, {});
  DpResult b = RunStepDp(&ctx2, cg, {});
  EXPECT_EQ(a.plan.tensor_cut, b.plan.tensor_cut);
  EXPECT_EQ(a.plan.op_strategy, b.plan.op_strategy);
  EXPECT_DOUBLE_EQ(a.plan.comm_bytes, b.plan.comm_bytes);
}

TEST(Dp, ReductionStrategiesNeverHurt) {
  ModelGraph model = TinyMlp();
  CoarseGraph cg = Coarsen(model.graph);
  StepContext ctx1(model.graph, StepContext::InitialShapes(model.graph), 2);
  DpResult with = RunStepDp(&ctx1, cg, {});
  StepContext ctx2(model.graph, StepContext::InitialShapes(model.graph), 2);
  DpOptions no_reduction;
  no_reduction.allow_reduction_strategies = false;
  DpResult without = RunStepDp(&ctx2, cg, no_reduction);
  EXPECT_LE(with.plan.comm_bytes, without.plan.comm_bytes + 1.0);
}

TEST(Dp, ElementwiseRidersAreFree) {
  // A pure element-wise chain has a zero-communication plan at any split.
  Graph g;
  TensorId x = g.AddInput("x", {64, 64});
  TensorId a = g.AddOp("relu", {}, {x});
  TensorId b = g.AddOp("tanh", {}, {a});
  g.AddOp("sigmoid", {}, {b});
  CoarseGraph cg = Coarsen(g);
  StepContext ctx(g, StepContext::InitialShapes(g), 2);
  DpResult dp = RunStepDp(&ctx, cg, {});
  EXPECT_DOUBLE_EQ(dp.plan.comm_bytes, 0.0);
}

// The DP charges a step through its precompiled per-(term, option) evaluator; StepContext
// charges the same Lemma-1 table term by term. Every searched step's comm_bytes must
// equal the recost of its own cuts and strategies (up to summation order: the DP sums
// per group, the recost per op) on halo convolutions, attention, an unrolled RNN and
// widths no worker count divides, at non-power-of-two splits, with and without
// reduction strategies.
TEST(Dp, StepCostEqualsStepContextRecost) {
  std::vector<ModelGraph> models;
  WResNetConfig wresnet;
  wresnet.layers = 50;
  wresnet.width = 1;
  wresnet.batch = 4;
  wresnet.image = 64;
  wresnet.classes = 10;
  models.push_back(BuildWResNet(wresnet));
  TransformerConfig transformer;
  transformer.batch = 4;
  transformer.seq_len = 60;
  transformer.d_model = 96;
  transformer.d_ff = 384;
  transformer.heads = 4;
  transformer.num_classes = 100;
  models.push_back(BuildTransformer(transformer));
  RnnConfig rnn;
  rnn.layers = 2;
  rnn.hidden = 300;
  rnn.batch = 20;
  rnn.timesteps = 4;
  rnn.embed = 100;
  models.push_back(BuildRnn(rnn));
  MlpConfig mlp;
  mlp.layer_sizes = {1001, 515, 97};
  mlp.batch = 50;
  models.push_back(BuildMlp(mlp));

  for (const ModelGraph& model : models) {
    const Graph& g = model.graph;
    for (int workers : {6, 8, 12}) {
      for (bool allow_reduction : {true, false}) {
        PartitionOptions options;
        options.dp.allow_reduction_strategies = allow_reduction;
        const PartitionPlan plan = RecursivePartition(g, workers, options);
        ASSERT_FALSE(plan.steps.empty());
        std::vector<Shape> shapes = StepContext::InitialShapes(g);
        for (size_t i = 0; i < plan.steps.size(); ++i) {
          const BasicPlan& step = plan.steps[i];
          StepContext ctx(g, shapes, step.ways);
          double recost = 0.0;
          for (OpId op = 0; op < g.num_ops(); ++op) {
            recost += ctx.OpCommBytes(op, step.op_strategy[static_cast<size_t>(op)],
                                      step.tensor_cut);
          }
          EXPECT_LE(std::abs(step.comm_bytes - recost), 1e-12 * std::abs(recost))
              << model.name << " workers=" << workers
              << " reductions=" << allow_reduction << " step " << i << ": dp "
              << step.comm_bytes << " vs recost " << recost;
          shapes = StepContext::ApplyBasicPlan(g, shapes, step);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tofu
