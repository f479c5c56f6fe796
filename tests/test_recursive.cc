// Recursive-partition tests (paper §5.2 + appendix): factorization, 1/k memory sharding,
// Theorem 2 monotonicity of weighted step costs, flat-DP agreement on small graphs, and
// non-power-of-two worker counts.
#include <gtest/gtest.h>

#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/partition/flat_dp.h"
#include "tofu/partition/recursive.h"

namespace tofu {
namespace {

TEST(Factorize, NonIncreasingFactors) {
  EXPECT_EQ(FactorizeWorkers(8), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(FactorizeWorkers(6), (std::vector<int>{3, 2}));
  EXPECT_EQ(FactorizeWorkers(12), (std::vector<int>{3, 2, 2}));
  EXPECT_EQ(FactorizeWorkers(7), (std::vector<int>{7}));
  EXPECT_EQ(FactorizeWorkers(1), (std::vector<int>{}));
}

ModelGraph MidMlp() {
  MlpConfig config;
  config.layer_sizes = {512, 512, 512, 256};
  config.batch = 64;
  return BuildMlp(config);
}

TEST(Recursive, TrivialPlanForOneWorker) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 1);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_DOUBLE_EQ(plan.total_comm_bytes, 0.0);
}

TEST(Recursive, EveryLargeTensorShardsToOneKth) {
  ModelGraph model = MidMlp();
  const Graph& g = model.graph;
  const int k = 8;
  PartitionPlan plan = RecursivePartition(g, k);
  ASSERT_EQ(plan.steps.size(), 3u);
  for (const TensorNode& t : g.tensors()) {
    if (t.bytes() <= kReplicateThresholdBytes) {
      continue;  // small tensors may replicate
    }
    const std::int64_t shard = plan.ShardBytes(g, t.id);
    // Ceil division allows slight overshoot; shards must be ~1/k.
    EXPECT_LE(shard, t.bytes() / k + t.bytes() / 16) << t.name;
  }
}

TEST(Recursive, WeightedStepCostsSumToTotal) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  double sum = 0.0;
  for (double c : plan.weighted_step_costs) {
    sum += c;
  }
  EXPECT_NEAR(sum, plan.total_comm_bytes, 1.0);
}

// Theorem 2: delta_i <= delta_{i+1} for the weighted per-step costs. Holds when extents
// stay divisible (the appendix's setting); we use power-of-two dims throughout.
TEST(Recursive, Theorem2StepCostMonotonicity) {
  MlpConfig config;
  config.layer_sizes = {1024, 1024, 1024, 1024};
  config.batch = 256;
  config.with_bias = false;
  ModelGraph model = BuildMlp(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  ASSERT_EQ(plan.weighted_step_costs.size(), 3u);
  for (size_t i = 0; i + 1 < plan.weighted_step_costs.size(); ++i) {
    EXPECT_LE(plan.weighted_step_costs[i], plan.weighted_step_costs[i + 1] * 1.0001)
        << "step " << i;
  }
}

TEST(Recursive, NonPowerOfTwoWorkers) {
  ModelGraph model = MidMlp();
  PartitionPlan plan = RecursivePartition(model.graph, 6);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].ways, 3);
  EXPECT_EQ(plan.steps[1].ways, 2);
  for (const TensorNode& t : model.graph.tensors()) {
    if (t.bytes() > kReplicateThresholdBytes) {
      std::vector<int> splits = plan.TensorSplits(model.graph, t.id);
      int total = 1;
      for (int s : splits) {
        total *= s;
      }
      EXPECT_EQ(total, 6) << t.name;
    }
  }
}

TEST(Recursive, MultiDimensionTilingsEmerge) {
  // With 8 workers and 2-D tensors, at least one tensor should end up tiled on both
  // dimensions (the Figure 6 scenario) in a mixed MLP.
  MlpConfig config;
  config.layer_sizes = {2048, 2048, 2048};
  config.batch = 4;  // the batch admits at most two 2-way splits: the third must tile
  config.with_bias = false;  // another dimension
  ModelGraph model = BuildMlp(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  bool saw_multi_dim = false;
  for (const TensorNode& t : model.graph.tensors()) {
    std::vector<int> splits = plan.TensorSplits(model.graph, t.id);
    int dims_split = 0;
    for (int s : splits) {
      dims_split += s > 1 ? 1 : 0;
    }
    saw_multi_dim = saw_multi_dim || dims_split >= 2;
  }
  EXPECT_TRUE(saw_multi_dim);
}

TEST(FlatDp, CompletesAndAgreesOnTinyGraph) {
  MlpConfig config;
  config.layer_sizes = {128, 96};
  config.batch = 32;
  config.with_bias = false;
  ModelGraph model = BuildMlp(config);
  CoarseGraph cg = Coarsen(model.graph);

  FlatDpOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 30.0;
  FlatDpResult flat = RunFlatDp(model.graph, cg, options);
  ASSERT_TRUE(flat.completed);
  EXPECT_EQ(flat.configs_evaluated, flat.configs_total);

  PartitionPlan recursive = RecursivePartition(model.graph, 4);
  // Both search the same cost landscape; the flat (joint) search can be no better than
  // the per-step-optimal recursion under Theorem 3, and should land close.
  EXPECT_NEAR(flat.plan.total_comm_bytes, recursive.total_comm_bytes,
              0.15 * std::max(1.0, recursive.total_comm_bytes));
}

TEST(FlatDp, OneWorkerReturnsTheTrivialPlan) {
  MlpConfig config;
  config.layer_sizes = {128, 96};
  config.batch = 32;
  config.with_bias = false;
  ModelGraph model = BuildMlp(config);
  FlatDpOptions options;
  options.num_workers = 1;
  FlatDpResult flat = RunFlatDp(model.graph, Coarsen(model.graph), options);
  EXPECT_TRUE(flat.completed);
  EXPECT_EQ(flat.plan.num_workers, 1);
  EXPECT_TRUE(flat.plan.steps.empty());
  EXPECT_EQ(flat.configs_total, 0.0);
}

// A completed flat search costs each joint configuration exactly once: its group
// tables hold one minimum per combination of tilings, so the evaluations it reports are
// Table 1's configuration count, not a multiple of it.
TEST(FlatDp, CompletedSearchCostsEachConfigurationOnce) {
  RnnConfig config;
  config.layers = 2;
  config.hidden = 256;
  config.batch = 32;
  config.timesteps = 8;
  ModelGraph model = BuildRnn(config);
  FlatDpOptions options;
  options.num_workers = 2;
  options.time_budget_seconds = 60.0;
  FlatDpResult flat = RunFlatDp(model.graph, Coarsen(model.graph), options);
  ASSERT_TRUE(flat.completed);
  EXPECT_GT(flat.configs_total, 0.0);
  EXPECT_EQ(flat.configs_evaluated, flat.configs_total);
}

TEST(FlatDp, BudgetedRunReportsProjection) {
  RnnConfig config;
  config.layers = 2;
  config.hidden = 256;
  config.batch = 32;
  config.timesteps = 8;
  ModelGraph model = BuildRnn(config);
  CoarseGraph cg = Coarsen(model.graph);
  FlatDpOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 0.2;
  FlatDpResult flat = RunFlatDp(model.graph, cg, options);
  EXPECT_GT(flat.configs_total, 0.0);
  if (!flat.completed) {
    EXPECT_GT(flat.projected_seconds, 0.0);
    EXPECT_GT(flat.configs_total, flat.configs_evaluated);
  }
}

TEST(Recursive, BudgetedPlanRecordsPerStepPeaksAndHonorsTheFinalBound) {
  ModelGraph model = MidMlp();
  PartitionPlan free_plan = RecursivePartition(model.graph, 8);
  ASSERT_EQ(free_plan.steps.size(), 3u);
  // Per-step peaks are recorded even without a budget, and shrink monotonically: every
  // step cuts (or at worst replicates) against strictly finer groups.
  for (size_t i = 0; i + 1 < free_plan.steps.size(); ++i) {
    EXPECT_GE(free_plan.steps[i].peak_shard_bytes,
              free_plan.steps[i + 1].peak_shard_bytes);
  }
  EXPECT_TRUE(free_plan.memory_feasible);
  EXPECT_EQ(free_plan.memory_budget_bytes, 0);

  // Constrain below the unconstrained plan's final residency: the search must return a
  // DIFFERENT plan whose final per-worker bytes fit, at equal-or-higher comm.
  const double free_final = free_plan.steps.back().peak_shard_bytes;
  PartitionOptions options;
  options.memory_budget_bytes = static_cast<std::int64_t>(free_final) - 1;
  PartitionPlan tight = RecursivePartition(model.graph, 8, options);
  ASSERT_EQ(tight.steps.size(), 3u);
  EXPECT_TRUE(tight.memory_feasible);
  EXPECT_EQ(tight.memory_budget_bytes, options.memory_budget_bytes);
  EXPECT_LE(tight.steps.back().peak_shard_bytes,
            static_cast<double>(options.memory_budget_bytes));
  EXPECT_GE(tight.total_comm_bytes, free_plan.total_comm_bytes);
  // The budget changed the outcome, not just the bookkeeping.
  EXPECT_LT(tight.steps.back().peak_shard_bytes, free_final);

  // An impossible budget comes back marked infeasible, with the lightest plan found as
  // the witness (still a complete, well-formed plan).
  options.memory_budget_bytes = 1;
  PartitionPlan witness = RecursivePartition(model.graph, 8, options);
  EXPECT_FALSE(witness.memory_feasible);
  ASSERT_EQ(witness.steps.size(), 3u);
  EXPECT_GT(witness.steps.back().peak_shard_bytes, 1.0);
}

TEST(Recursive, RnnPlanPartitionsEveryWeight) {
  RnnConfig config;
  config.layers = 2;
  config.hidden = 512;
  config.batch = 64;
  config.timesteps = 6;
  ModelGraph model = BuildRnn(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  for (TensorId w : model.graph.ParamIds()) {
    if (model.graph.tensor(w).bytes() > kReplicateThresholdBytes) {
      EXPECT_NE(plan.DescribeTiling(model.graph, w), "replicated")
          << model.graph.tensor(w).name;
    }
  }
}

}  // namespace
}  // namespace tofu
