// Golden plan regression: the Table-1 models' uniform-topology plans are pinned by
// digest to their pre-interconnect values (bench/baseline_table1.json carries the same
// constants for the perf gate). The baselines, the lightest-cuts budget witness and the
// flat DP are pinned the same way, so a refactor of the shared step machinery (cost
// terms, strategy pick, step fold) cannot move any plan builder unnoticed; every pinned
// plan must also pass ValidatePlanForGraph. The interconnect work routes all topology
// awareness through PartitionOptions::step_bandwidths, and a uniform topology fills a
// single scalar -- which, by the DP-argmin argument in partition/dp.h, cannot change any
// partition decision. These tests make that guarantee executable: if a refactor
// perturbs the uniform search path even one bit, the digests diverge and CTest fails.
#include <gtest/gtest.h>

#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/baselines.h"
#include "tofu/partition/flat_dp.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/recursive.h"

namespace tofu {
namespace {

// The pre-interconnect digests of RecursivePartition(graph, 8), identical to the
// plan_digest values in bench/baseline_table1.json. Update both together, and only for
// a deliberate search change.
constexpr const char* kWResNetDigest = "b8be8aeb8a016afa";
constexpr const char* kRnnDigest = "0df1a6ce9ae05e12";

ModelGraph Table1WResNet() {
  WResNetConfig config;
  config.layers = 152;
  config.width = 10;
  config.batch = 8;
  return BuildWResNet(config);
}

ModelGraph Table1Rnn() {
  RnnConfig config;
  config.layers = 10;
  config.hidden = 8192;
  config.batch = 128;
  return BuildRnn(config);
}

// The partition decisions and search trace, with the fields a topology legitimately
// changes (per-step seconds, their sum, wall time) zeroed: what "the same plan" means
// across bandwidth models.
std::string StructuralJson(PartitionPlan plan) {
  plan.search_stats.wall_seconds = 0.0;
  plan.step_seconds.clear();
  plan.estimated_comm_seconds = 0.0;
  for (BasicPlan& step : plan.steps) {
    step.comm_seconds = 0.0;
  }
  return PlanToJson(plan);
}

// Every pinned plan must also validate against the graph it was searched on.
void ExpectPinned(const Graph& graph, const PartitionPlan& plan, const char* digest) {
  EXPECT_EQ(PlanDigest(plan), digest);
  const Status valid = ValidatePlanForGraph(graph, plan);
  EXPECT_TRUE(valid.ok()) << digest << ": " << valid.ToString();
}

void ExpectGolden(const ModelGraph& model, const char* digest) {
  PartitionPlan raw = RecursivePartition(model.graph, 8);
  ExpectPinned(model.graph, raw, digest);

  // A uniform-topology Session must search the identical plan: its scalar
  // step_bandwidths only rescale costs, never reorder them.
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(StructuralJson(response->plan), StructuralJson(raw)) << model.name;
  // And the digest itself is deterministic across repeated searches.
  EXPECT_EQ(PlanDigest(RecursivePartition(model.graph, 8)), digest) << model.name;
}

TEST(PlanGoldens, WResNet152PlanIsBitIdenticalToPreInterconnectBaseline) {
  ExpectGolden(Table1WResNet(), kWResNetDigest);
}

TEST(PlanGoldens, Rnn10PlanIsBitIdenticalToPreInterconnectBaseline) {
  ExpectGolden(Table1Rnn(), kRnnDigest);
}

// Digests of the baseline algorithms on the Table-1 models at 8 workers, recorded before
// the baselines shared the recursion's step fold and strategy pick.
TEST(PlanGoldens, BaselinePlansAreBitIdentical) {
  const ModelGraph wresnet = Table1WResNet();
  const ModelGraph rnn = Table1Rnn();
  ExpectPinned(wresnet.graph, DataParallelPlan(wresnet.graph, 8), "6f32d4170d9fbc54");
  ExpectPinned(rnn.graph, DataParallelPlan(rnn.graph, 8), "540cb95e30b7fb2f");
  ExpectPinned(wresnet.graph, AllRowGreedyPlan(wresnet.graph, 8), "6aa6ec76e41d0f35");
  ExpectPinned(rnn.graph, AllRowGreedyPlan(rnn.graph, 8), "d4d1150de391deb4");
  ExpectPinned(wresnet.graph, SpartanGreedyPlan(wresnet.graph, 8), "df72f5facb5838ee");
  ExpectPinned(rnn.graph, SpartanGreedyPlan(rnn.graph, 8), "81f89cca77218300");
  ExpectPinned(wresnet.graph, EqualChopPlan(wresnet.graph, 8), "0e8eb3a660cbc7e8");
  ExpectPinned(rnn.graph, EqualChopPlan(rnn.graph, 8), "5325c967681e64c7");
  ExpectPinned(wresnet.graph, Icml18Plan(wresnet.graph, 8), "a4a5532596c7b3b7");
  ExpectPinned(rnn.graph, Icml18Plan(rnn.graph, 8), "96abe7e63f31a8e2");
}

// An impossible budget without repair returns the lightest-cuts witness
// (recursive.cc's fallback, tried over every factor ordering).
TEST(PlanGoldens, LightestCutsWitnessIsBitIdentical) {
  PartitionOptions options;
  options.memory_budget_bytes = 1;
  options.memory_policy = MemoryPolicy::kNone;
  const ModelGraph wresnet_model = Table1WResNet();
  const PartitionPlan wresnet = RecursivePartition(wresnet_model.graph, 8, options);
  EXPECT_FALSE(wresnet.memory_feasible);
  ExpectPinned(wresnet_model.graph, wresnet, "7fa7ece25b28f3fc");
  const ModelGraph rnn_model = Table1Rnn();
  const PartitionPlan rnn = RecursivePartition(rnn_model.graph, 12, options);
  EXPECT_FALSE(rnn.memory_feasible);
  ExpectPinned(rnn_model.graph, rnn, "80236df34dbe251e");
}

// The flat DP's plan on the tiny MLP it completes on (test_recursive.cc's FlatDp cases).
TEST(PlanGoldens, FlatDpPlanIsBitIdentical) {
  MlpConfig config;
  config.layer_sizes = {128, 96};
  config.batch = 32;
  config.with_bias = false;
  const ModelGraph model = BuildMlp(config);
  FlatDpOptions options;
  options.num_workers = 4;
  options.time_budget_seconds = 30.0;
  const FlatDpResult flat = RunFlatDp(model.graph, Coarsen(model.graph), options);
  ASSERT_TRUE(flat.completed);
  ExpectPinned(model.graph, flat.plan, "bac04bfb28a26f12");
}

// Capped searches (frontier over DpOptions::max_states) search the lowest-index option
// prefix of each entering slot; their plans are pinned so a change to how a capped
// search fills its tables cannot move them unnoticed. The ablation models and settings
// are bench_ablations' coarsening rows.
void ExpectCappedPinned(const Graph& graph, const PartitionOptions& options,
                        const char* digest) {
  const PartitionPlan plan = RecursivePartition(graph, 8, options);
  EXPECT_FALSE(plan.search_stats.exact) << digest;
  ExpectPinned(graph, plan, digest);
}

ModelGraph AblationRnn() {
  RnnConfig config;
  config.layers = 6;
  config.hidden = 4096;
  config.batch = 256;
  return BuildRnn(config);
}

ModelGraph AblationWResNet() {
  WResNetConfig config;
  config.layers = 101;
  config.width = 8;
  config.batch = 16;
  return BuildWResNet(config);
}

TEST(PlanGoldens, CappedMlpSearchIsBitIdentical) {
  MlpConfig config;
  config.layer_sizes = {512, 512, 512, 256};
  config.batch = 64;
  const ModelGraph model = BuildMlp(config);
  PartitionOptions options;
  options.dp.max_states = 8;
  ExpectCappedPinned(model.graph, options, "e482ddb5352040c2");
}

TEST(PlanGoldens, CappedAblationSearchesAreBitIdentical) {
  PartitionOptions no_fwbw;
  no_fwbw.dp.max_states = 1 << 14;
  no_fwbw.coarsen.group_forward_backward = false;
  PartitionOptions no_ew;
  no_ew.dp.max_states = 1 << 14;
  no_ew.coarsen.coalesce_elementwise = false;
  const ModelGraph rnn = AblationRnn();
  ExpectCappedPinned(rnn.graph, no_fwbw, "c1b32990555f505c");
  ExpectCappedPinned(rnn.graph, no_ew, "51a4eeff614b567f");
  const ModelGraph wresnet = AblationWResNet();
  ExpectCappedPinned(wresnet.graph, no_fwbw, "04c028058a31bea5");
  ExpectCappedPinned(wresnet.graph, no_ew, "48573c760173841b");
}

}  // namespace
}  // namespace tofu
