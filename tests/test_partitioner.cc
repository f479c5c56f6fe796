// Planning through the public Session API, and the Figure-11-style tiling reports.
#include <gtest/gtest.h>

#include "session_helpers.h"
#include "tofu/core/report.h"
#include "tofu/models/mlp.h"
#include "tofu/models/wresnet.h"

namespace tofu {
namespace {

TEST(Partitioner, DefaultOptionsPartitionMlp) {
  MlpConfig config;
  config.layer_sizes = {512, 512, 128};
  config.batch = 64;
  ModelGraph model = BuildMlp(config);
  Session session(DeviceTopology::Uniform(8));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  EXPECT_EQ(plan.num_workers, 8);
  EXPECT_EQ(plan.steps.size(), 3u);
  EXPECT_GE(plan.total_comm_bytes, 0.0);
}

TEST(Partitioner, OptionsArePlumbedThrough) {
  MlpConfig config;
  config.layer_sizes = {512, 512, 128};
  config.batch = 64;
  ModelGraph model = BuildMlp(config);
  PartitionRequest request;
  request.graph = &model.graph;
  request.options.dp.allow_reduction_strategies = false;
  EXPECT_FALSE(request.options.dp.allow_reduction_strategies);
  // The session searches with the request's options: without output reduction, the
  // Tofu search is the ICML18 restriction.
  Session session(DeviceTopology::Uniform(8));
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->plan.total_comm_bytes,
            PlanOrFail(session, model.graph, PartitionAlgorithm::kIcml18).total_comm_bytes);
}

TEST(Report, PlanSummaryListsSteps) {
  MlpConfig config;
  config.layer_sizes = {256, 256, 64};
  ModelGraph model = BuildMlp(config);
  Session session(DeviceTopology::Uniform(4));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  std::string summary = PlanSummary(model.graph, plan);
  EXPECT_NE(summary.find("plan for 4 workers"), std::string::npos);
  EXPECT_NE(summary.find("step 0"), std::string::npos);
  EXPECT_NE(summary.find("step 1"), std::string::npos);
}

TEST(Report, TilingReportCollapsesRepeatedBlocks) {
  WResNetConfig config;
  config.layers = 50;
  config.width = 4;
  config.batch = 8;
  ModelGraph model = BuildWResNet(config);
  Session session(DeviceTopology::Uniform(8));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  std::string report = TilingReport(model.graph, plan);
  EXPECT_NE(report.find("conv2d"), std::string::npos);
  EXPECT_NE(report.find("weight"), std::string::npos);
  // Repeated residual blocks must collapse into xN lines (Figure 11's notation).
  EXPECT_NE(report.find("x"), std::string::npos);
  // The report is much shorter than one line per conv.
  int lines = 0;
  for (char c : report) {
    lines += c == '\n' ? 1 : 0;
  }
  int convs = 0;
  for (const OpNode& op : model.graph.ops()) {
    convs += (!op.is_backward && op.type == "conv2d") ? 1 : 0;
  }
  EXPECT_LT(lines, convs);
}

TEST(Report, DescribeTilingShowsMultiDimSplits) {
  MlpConfig config;
  config.layer_sizes = {2048, 2048};
  config.batch = 64;
  config.with_bias = false;
  ModelGraph model = BuildMlp(config);
  Session session(DeviceTopology::Uniform(8));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  bool any_described = false;
  for (const TensorNode& t : model.graph.tensors()) {
    std::string desc = plan.DescribeTiling(model.graph, t.id);
    EXPECT_FALSE(desc.empty());
    any_described = any_described || desc != "replicated";
  }
  EXPECT_TRUE(any_described);
}

}  // namespace
}  // namespace tofu
