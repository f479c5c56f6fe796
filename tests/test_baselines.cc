// Baseline partition algorithms (Figure 10's comparison set): structural validity and
// the expected quality ordering -- Tofu's DP never loses to the greedy heuristics or the
// reduction-free ICML'18 restriction on communication volume.
#include <gtest/gtest.h>

#include "session_helpers.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"

namespace tofu {
namespace {

ModelGraph Fixture() {
  MlpConfig config;
  config.layer_sizes = {1024, 1024, 512, 256};
  config.batch = 128;
  return BuildMlp(config);
}

void CheckWellFormed(const Graph& g, const PartitionPlan& plan, int k) {
  EXPECT_EQ(plan.num_workers, k);
  int total = 1;
  for (int f : plan.step_factors) {
    total *= f;
  }
  EXPECT_EQ(total, k);
  for (const BasicPlan& step : plan.steps) {
    ASSERT_EQ(step.tensor_cut.size(), static_cast<size_t>(g.num_tensors()));
    ASSERT_EQ(step.op_strategy.size(), static_cast<size_t>(g.num_ops()));
  }
}

TEST(Baselines, AllPlansAreWellFormed) {
  ModelGraph model = Fixture();
  Session session(DeviceTopology::Uniform(8));
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kTofu, PartitionAlgorithm::kIcml18, PartitionAlgorithm::kEqualChop,
        PartitionAlgorithm::kSpartan, PartitionAlgorithm::kAllRowGreedy}) {
    PartitionPlan plan = PlanOrFail(session, model.graph, algorithm);
    CheckWellFormed(model.graph, plan, 8);
  }
}

TEST(Baselines, TofuNeverLosesOnCommunication) {
  ModelGraph model = Fixture();
  Session session(DeviceTopology::Uniform(8));
  const double tofu = PlanOrFail(session, model.graph).total_comm_bytes;
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kIcml18, PartitionAlgorithm::kEqualChop,
        PartitionAlgorithm::kSpartan, PartitionAlgorithm::kAllRowGreedy}) {
    const double other = PlanOrFail(session, model.graph, algorithm).total_comm_bytes;
    EXPECT_LE(tofu, other * 1.0001) << AlgorithmName(algorithm);
  }
}

TEST(Baselines, TofuBeatsAllRowGreedyOnRnn) {
  RnnConfig config;
  config.layers = 2;
  config.hidden = 512;
  config.batch = 64;
  config.timesteps = 6;
  ModelGraph model = BuildRnn(config);
  Session session(DeviceTopology::Uniform(8));
  const double tofu = PlanOrFail(session, model.graph).total_comm_bytes;
  const double allrow =
      PlanOrFail(session, model.graph, PartitionAlgorithm::kAllRowGreedy).total_comm_bytes;
  EXPECT_LT(tofu, allrow);
}

TEST(Baselines, AllRowGreedySplitsDimZero) {
  ModelGraph model = Fixture();
  PartitionPlan plan = AllRowGreedyPlan(model.graph, 8);
  for (const BasicPlan& step : plan.steps) {
    for (TensorId t = 0; t < model.graph.num_tensors(); ++t) {
      const int cut = step.tensor_cut[static_cast<size_t>(t)];
      if (cut != kReplicated && model.graph.tensor(t).shape[0] >= step.ways) {
        EXPECT_EQ(cut, 0) << model.graph.tensor(t).name;
      }
    }
  }
}

TEST(Baselines, EqualChopUsesOneStep) {
  ModelGraph model = Fixture();
  PartitionPlan plan = EqualChopPlan(model.graph, 8);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].ways, 8);
  // Every partitioned tensor is chopped along exactly one dimension.
  for (const TensorNode& t : model.graph.tensors()) {
    std::vector<int> splits = plan.TensorSplits(model.graph, t.id);
    int dims_split = 0;
    for (int s : splits) {
      dims_split += s > 1 ? 1 : 0;
    }
    EXPECT_LE(dims_split, 1) << t.name;
  }
}

TEST(Baselines, Icml18HasNoReductionStrategies) {
  ModelGraph model = Fixture();
  PartitionPlan plan = Icml18Plan(model.graph, 8);
  std::vector<Shape> shapes = StepContext::InitialShapes(model.graph);
  for (const BasicPlan& step : plan.steps) {
    StepContext ctx(model.graph, shapes, step.ways);
    for (OpId op = 0; op < model.graph.num_ops(); ++op) {
      const int sidx = step.op_strategy[static_cast<size_t>(op)];
      if (sidx != kReplicatedExec) {
        EXPECT_FALSE(ctx.Strategies(op)[static_cast<size_t>(sidx)].is_reduction);
      }
    }
    shapes = StepContext::ApplyBasicPlan(model.graph, shapes, step);
  }
}

TEST(Baselines, SpartanImprovesOnAllRowGreedy) {
  ModelGraph model = Fixture();
  const double spartan = SpartanGreedyPlan(model.graph, 8).total_comm_bytes;
  const double allrow = AllRowGreedyPlan(model.graph, 8).total_comm_bytes;
  EXPECT_LE(spartan, allrow * 1.0001);
}

TEST(Baselines, AlgorithmNamesAreStable) {
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kTofu), "Tofu");
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kIcml18), "ICML18");
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kEqualChop), "EqualChop");
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kSpartan), "Spartan");
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kAllRowGreedy), "AllRow-Greedy");
}

}  // namespace
}  // namespace tofu
