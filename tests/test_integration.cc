// End-to-end integration sweeps: the full pipeline (build -> validate -> autodiff ->
// coarsen -> recursive partition -> lower -> simulate) over model families x worker
// counts, asserting the invariants a correct run must satisfy everywhere:
//   * the plan's analytic communication equals the lowered graph's transfer volume;
//   * per-worker resident state is ~1/k of the single-device state;
//   * the simulated iteration is never faster than its zero-communication bound;
//   * all workers perform the same amount of compute (balanced partitions).
#include <gtest/gtest.h>

#include "tofu/core/experiment.h"
#include "session_helpers.h"
#include "tofu/models/mlp.h"
#include "tofu/util/strings.h"

namespace tofu {
namespace {

struct SweepCase {
  std::string name;
  int family;  // 0 = MLP-ish RNN small, 1 = WResNet, 2 = RNN
  int workers;
};

ModelGraph BuildCase(const SweepCase& c) {
  if (c.family == 1) {
    WResNetConfig config;
    config.layers = 50;
    config.width = 4;
    config.batch = 32;
    return BuildWResNet(config);
  }
  if (c.family == 2) {
    RnnConfig config;
    config.layers = 3;
    config.hidden = 1024;
    config.batch = 64;
    config.timesteps = 10;
    return BuildRnn(config);
  }
  MlpConfig config;
  config.layer_sizes = {1024, 2048, 1024, 256};
  config.batch = 128;
  return BuildMlp(config);
}

std::vector<SweepCase> Sweep() {
  std::vector<SweepCase> cases;
  for (int family = 0; family < 3; ++family) {
    for (int workers : {2, 4, 6, 8}) {
      const char* names[] = {"mlp", "wresnet", "rnn"};
      cases.push_back({StrFormat("%s_k%d", names[family], workers), family, workers});
    }
  }
  return cases;
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, EndToEndInvariantsHold) {
  const SweepCase& c = GetParam();
  ModelGraph model = BuildCase(c);
  ValidateGraph(model.graph);

  Session session(DeviceTopology::Uniform(c.workers));
  PartitionPlan plan = PlanOrFail(session, model.graph);
  ASSERT_EQ(plan.num_workers, c.workers);

  const ClusterSpec cluster = K80Cluster();
  SimGraph sim = LowerPartitioned(model.graph, plan, cluster,
                                  static_cast<double>(model.batch));
  ASSERT_EQ(sim.num_devices, c.workers);

  // (1) lowered transfer volume == analytic plan cost.
  double lowered = 0.0;
  std::vector<double> compute_per_device(static_cast<size_t>(c.workers), 0.0);
  for (const SimNode& n : sim.nodes) {
    if (n.kind == SimNode::Kind::kCompute) {
      compute_per_device[static_cast<size_t>(n.device)] += n.duration_s;
    } else {
      lowered += n.comm_bytes;
    }
  }
  EXPECT_NEAR(lowered, plan.total_comm_bytes, 0.02 * std::max(1.0, plan.total_comm_bytes))
      << c.name;

  // (2) resident state ~ 1/k (biases may replicate).
  PartitionPlan trivial;
  SimGraph single = LowerPartitioned(model.graph, trivial, cluster,
                                     static_cast<double>(model.batch));
  EXPECT_LT(sim.resident_bytes[0], single.resident_bytes[0] / c.workers * 1.6) << c.name;

  // (3) compute is balanced across workers (same shards everywhere).
  for (int d = 1; d < c.workers; ++d) {
    EXPECT_NEAR(compute_per_device[static_cast<size_t>(d)], compute_per_device[0],
                1e-9 * std::max(1.0, compute_per_device[0]))
        << c.name;
  }

  // (4) simulated timing sanity: full >= zero-comm >= serial-compute / k.
  SimResult full = RunSim(sim, cluster, {.zero_comm = false, .unlimited_memory = true});
  SimResult nocomm = RunSim(sim, cluster, {.zero_comm = true, .unlimited_memory = true});
  EXPECT_GE(full.makespan_s, nocomm.makespan_s - 1e-12) << c.name;
  EXPECT_GE(nocomm.makespan_s, compute_per_device[0] - 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Models, PipelineSweep, ::testing::ValuesIn(Sweep()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.name;
                         });

TEST(Integration, AllAlgorithmsSurviveAllFamilies) {
  for (int family = 0; family < 3; ++family) {
    ModelGraph model = BuildCase({"x", family, 8});
    Session session(DeviceTopology::Uniform(8));
    for (PartitionAlgorithm algorithm :
         {PartitionAlgorithm::kTofu, PartitionAlgorithm::kIcml18,
          PartitionAlgorithm::kEqualChop, PartitionAlgorithm::kSpartan,
          PartitionAlgorithm::kAllRowGreedy}) {
      PartitionPlan plan = PlanOrFail(session, model.graph, algorithm);
      EXPECT_GE(plan.total_comm_bytes, 0.0) << AlgorithmName(algorithm);
      ThroughputResult r = RunPlanThroughput(model, plan, K80Cluster());
      EXPECT_GT(r.iter_seconds, 0.0) << AlgorithmName(algorithm);
    }
  }
}

TEST(Integration, DpStaysExactOnPaperModels) {
  // The state cap must never bind with full coarsening on the benchmark models.
  for (int family = 0; family < 3; ++family) {
    ModelGraph model = BuildCase({"x", family, 8});
    CoarseGraph cg = Coarsen(model.graph);
    StepContext ctx(model.graph, StepContext::InitialShapes(model.graph), 2);
    DpResult dp = RunStepDp(&ctx, cg, {});
    EXPECT_TRUE(dp.stats.exact) << "family " << family;
  }
}

}  // namespace
}  // namespace tofu
