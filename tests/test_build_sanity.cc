// Build-sanity smoke test: the quickstart.cpp flow in miniature. Builds a small MLP
// training graph, partitions it for 4 workers with the default recursive search, and
// checks the resulting plan is non-empty and internally consistent. If this test links
// and passes, the library, the model builders, and the Session API are all wired
// up correctly — it is the first thing to consult when the build itself is in question.
#include <gtest/gtest.h>

#include "session_helpers.h"
#include "tofu/core/report.h"
#include "tofu/models/mlp.h"
#include "tofu/sim/runtimes.h"

namespace tofu {
namespace {

TEST(BuildSanity, QuickstartFlowProducesValidPlan) {
  MlpConfig config;
  config.layer_sizes = {256, 512, 256, 10};
  config.batch = 64;
  ModelGraph model = BuildMlp(config);
  ASSERT_GT(model.graph.num_ops(), 0);
  ASSERT_GT(model.graph.num_tensors(), 0);
  ValidateGraph(model.graph);

  constexpr int kWorkers = 4;
  Session session(DeviceTopology::Uniform(kWorkers));
  PartitionPlan plan = PlanOrFail(session, model.graph);

  // Non-empty: 4 workers factorize as 2 x 2, so the plan must have recursive steps.
  EXPECT_EQ(plan.num_workers, kWorkers);
  ASSERT_FALSE(plan.steps.empty());
  ASSERT_EQ(plan.steps.size(), plan.step_factors.size());
  int product = 1;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].ways, plan.step_factors[i]);
    product *= plan.step_factors[i];
  }
  EXPECT_EQ(product, kWorkers);

  // Validates: every step describes every tensor and op, and every 2D weight ends up
  // actually split (the paper partitions all substantial tensors).
  for (const BasicPlan& step : plan.steps) {
    EXPECT_EQ(static_cast<int>(step.tensor_cut.size()), model.graph.num_tensors());
    EXPECT_EQ(static_cast<int>(step.op_strategy.size()), model.graph.num_ops());
  }
  // Weights above the replication threshold must actually be split; tiny ones may stay
  // replicated (strategy.h: kReplicateThresholdBytes).
  for (TensorId w : model.graph.ParamIds()) {
    const TensorNode& t = model.graph.tensor(w);
    if (t.rank() != 2 || t.bytes() <= kReplicateThresholdBytes) continue;
    std::vector<int> splits = plan.TensorSplits(model.graph, w);
    int total_split = 1;
    for (int s : splits) total_split *= s;
    EXPECT_GT(total_split, 1) << "weight " << t.name << " left unpartitioned";
    EXPECT_LT(plan.ShardBytes(model.graph, w), t.bytes());
  }

  // The summary renderer and the simulator both accept the plan.
  EXPECT_FALSE(PlanSummary(model.graph, plan).empty());
  ThroughputResult result = RunPlanThroughput(model, plan, K80Cluster());
  EXPECT_GT(result.samples_per_second, 0.0);
  EXPECT_FALSE(result.oom);
}

}  // namespace
}  // namespace tofu
