// Plan serialization tests: every PartitionPlan field survives the JSON round trip, a
// reloaded plan replays through the simulator with identical totals, malformed or
// mismatched documents are rejected with recoverable Statuses, and ValidatePlanForGraph
// rejects plans that do not fit the graph they are applied to.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "tofu/core/session.h"
#include "tofu/memory/schedule.h"
#include "tofu/models/mlp.h"
#include "tofu/partition/plan_io.h"
#include "tofu/pipeline/compose.h"
#include "tofu/pipeline/pipeline_plan.h"
#include "tofu/sim/runtimes.h"

namespace tofu {
namespace {

ModelGraph SmallModel() {
  MlpConfig config;
  config.layer_sizes = {256, 256, 64};
  config.batch = 32;
  return BuildMlp(config);
}

PartitionPlan PlanFor(const ModelGraph& model, int workers) {
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->plan.num_workers, workers);
  return response->plan;
}

TEST(PlanJson, RoundTripsEveryField) {
  ModelGraph model = SmallModel();
  PartitionPlan plan = PlanFor(model, 8);
  plan.search_stats.wall_seconds = 0.015625;  // representable, so EQ is exact
  plan.memory_budget_bytes = 123456789;       // exercise the v2 memory fields
  plan.memory_feasible = false;
  plan.search_stats.memory_pruned_states = 42;

  Result<PartitionPlan> reloaded = PlanFromJson(PlanToJson(plan));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  EXPECT_EQ(reloaded->num_workers, plan.num_workers);
  EXPECT_EQ(reloaded->step_factors, plan.step_factors);
  EXPECT_EQ(reloaded->total_comm_bytes, plan.total_comm_bytes);
  EXPECT_EQ(reloaded->weighted_step_costs, plan.weighted_step_costs);
  EXPECT_EQ(reloaded->step_seconds, plan.step_seconds);
  EXPECT_EQ(reloaded->estimated_comm_seconds, plan.estimated_comm_seconds);
  EXPECT_EQ(reloaded->search_stats.states_explored, plan.search_stats.states_explored);
  EXPECT_EQ(reloaded->search_stats.max_frontier_states,
            plan.search_stats.max_frontier_states);
  EXPECT_EQ(reloaded->search_stats.cost_table_entries,
            plan.search_stats.cost_table_entries);
  EXPECT_EQ(reloaded->search_stats.wall_seconds, plan.search_stats.wall_seconds);
  EXPECT_EQ(reloaded->search_stats.exact, plan.search_stats.exact);
  EXPECT_EQ(reloaded->search_stats.memory_pruned_states,
            plan.search_stats.memory_pruned_states);
  EXPECT_EQ(reloaded->memory_budget_bytes, plan.memory_budget_bytes);
  EXPECT_EQ(reloaded->memory_feasible, plan.memory_feasible);
  ASSERT_EQ(reloaded->steps.size(), plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(reloaded->steps[i].ways, plan.steps[i].ways);
    EXPECT_EQ(reloaded->steps[i].comm_bytes, plan.steps[i].comm_bytes);
    EXPECT_EQ(reloaded->steps[i].comm_seconds, plan.steps[i].comm_seconds);
    EXPECT_EQ(reloaded->steps[i].peak_shard_bytes, plan.steps[i].peak_shard_bytes);
    EXPECT_GT(plan.steps[i].peak_shard_bytes, 0.0);
    EXPECT_EQ(reloaded->steps[i].tensor_cut, plan.steps[i].tensor_cut);
    EXPECT_EQ(reloaded->steps[i].op_strategy, plan.steps[i].op_strategy);
  }
  // The serialized forms agree byte-for-byte, so plans can be compared as strings.
  EXPECT_EQ(PlanToJson(*reloaded), PlanToJson(plan));
}

TEST(PlanJson, ReloadedPlanReplaysIdentically) {
  ModelGraph model = SmallModel();
  PartitionPlan plan = PlanFor(model, 8);
  Result<PartitionPlan> reloaded = PlanFromJson(PlanToJson(plan));
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(ValidatePlanForGraph(model.graph, *reloaded).ok());

  const ClusterSpec cluster = K80Cluster();
  ThroughputResult original = RunPlanThroughput(model, plan, cluster);
  ThroughputResult replay = RunPlanThroughput(model, *reloaded, cluster);
  EXPECT_EQ(reloaded->total_comm_bytes, plan.total_comm_bytes);
  EXPECT_EQ(replay.iter_seconds, original.iter_seconds);
  EXPECT_EQ(replay.samples_per_second, original.samples_per_second);
  EXPECT_EQ(replay.peak_bytes, original.peak_bytes);
}

TEST(PlanJson, V1TagIsRejectedNamingTheAcceptedSchemas) {
  // The v1 loader is gone: a v1 tag is an unknown schema, and the error names the
  // tags that do load.
  ModelGraph model = SmallModel();
  std::string v1 = PlanToJson(PlanFor(model, 8));
  const std::string v2_tag = "tofu.plan.v2";
  ASSERT_NE(v1.find(v2_tag), std::string::npos);
  v1.replace(v1.find(v2_tag), v2_tag.size(), "tofu.plan.v1");

  Result<PartitionPlan> reloaded = PlanFromJson(v1);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kInvalidArgument);
  for (const char* tag : {"tofu.plan.v2", "tofu.plan.v3", "tofu.plan.v4"}) {
    EXPECT_NE(reloaded.status().message().find(tag), std::string::npos) << tag;
  }
}

// A graph whose split capacities run out at 32 workers plus a budget the pure search
// cannot meet: the hybrid search must answer with a real multi-stage pipeline plan
// (tests/test_pipeline.cc pins the stage goldens; here we only need pipeline != null).
PartitionPlan HybridPlan(const ModelGraph& model) {
  PartitionOptions options;
  options.memory_budget_bytes = 150;
  PartitionPlan plan = HybridPartition(model.graph, 32, options);
  EXPECT_NE(plan.pipeline, nullptr);
  return plan;
}

ModelGraph NarrowModel() {
  MlpConfig config;
  config.layer_sizes = {4, 4, 4, 4, 4, 4, 4, 4};
  config.batch = 8;
  return BuildMlp(config);
}

TEST(PlanJson, HybridPlansRoundTripUnderTheV3Schema) {
  ModelGraph model = SmallModel();
  // Pure plans keep the v2 tag byte-for-byte -- the schema bump must not disturb any
  // pre-pipeline digest.
  EXPECT_NE(PlanToJson(PlanFor(model, 8)).find("tofu.plan.v2"), std::string::npos);

  ModelGraph narrow = NarrowModel();
  PartitionPlan plan = HybridPlan(narrow);
  const std::string json = PlanToJson(plan);
  EXPECT_NE(json.find("tofu.plan.v3"), std::string::npos);

  Result<PartitionPlan> reloaded = PlanFromJson(json);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_NE(reloaded->pipeline, nullptr);
  const PipelinePlan& pipe = *plan.pipeline;
  const PipelinePlan& back = *reloaded->pipeline;
  EXPECT_EQ(back.num_stages, pipe.num_stages);
  EXPECT_EQ(back.micro_batches, pipe.micro_batches);
  EXPECT_EQ(back.bottleneck_seconds, pipe.bottleneck_seconds);
  EXPECT_EQ(back.pipeline_seconds, pipe.pipeline_seconds);
  EXPECT_EQ(back.comm_seconds, pipe.comm_seconds);
  ASSERT_EQ(back.stages.size(), pipe.stages.size());
  for (size_t s = 0; s < pipe.stages.size(); ++s) {
    EXPECT_EQ(back.stages[s].first_group, pipe.stages[s].first_group);
    EXPECT_EQ(back.stages[s].last_group, pipe.stages[s].last_group);
    EXPECT_EQ(back.stages[s].num_workers, pipe.stages[s].num_workers);
    EXPECT_EQ(back.stages[s].first_worker, pipe.stages[s].first_worker);
    EXPECT_EQ(back.stages[s].fwd_seconds, pipe.stages[s].fwd_seconds);
    EXPECT_EQ(back.stages[s].bwd_seconds, pipe.stages[s].bwd_seconds);
    EXPECT_EQ(back.stages[s].activation_bytes, pipe.stages[s].activation_bytes);
    EXPECT_EQ(back.stages[s].peak_bytes, pipe.stages[s].peak_bytes);
    EXPECT_EQ(back.stages[s].all_resident_bytes, pipe.stages[s].all_resident_bytes);
    EXPECT_EQ(PlanToJson(back.stages[s].plan), PlanToJson(pipe.stages[s].plan));
  }
  // Byte-identical re-serialization, valid against the graph, stable digest.
  EXPECT_EQ(PlanToJson(*reloaded), json);
  EXPECT_TRUE(ValidatePlanForGraph(narrow.graph, *reloaded).ok());
  EXPECT_EQ(PlanDigest(*reloaded), PlanDigest(plan));
}

TEST(PlanJson, RejectsNestedPipelineSections) {
  // Stage inner plans must be pure: retag every nested v2 object as v3 and the parser
  // must refuse (a v3 stage would claim a pipeline inside a pipeline).
  ModelGraph narrow = NarrowModel();
  std::string json = PlanToJson(HybridPlan(narrow));
  const std::string v2_tag = "tofu.plan.v2";
  size_t at = json.find(v2_tag);
  ASSERT_NE(at, std::string::npos);  // the stage plans carry v2 tags
  while (at != std::string::npos) {
    json.replace(at, v2_tag.size(), "tofu.plan.v3");
    at = json.find(v2_tag, at);
  }
  Result<PartitionPlan> reloaded = PlanFromJson(json);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanJson, SchedulesRideOnlyOnPurePlans) {
  // A pipeline plan is never scheduled, and its stage plans are pure: both the
  // validator and the loader refuse a schedule on either.
  ModelGraph narrow = NarrowModel();
  const PartitionPlan plan = HybridPlan(narrow);
  ASSERT_NE(plan.pipeline, nullptr);
  auto schedule = std::make_shared<MemorySchedule>();
  schedule->budget_bytes = 150;
  schedule->decisions.push_back({/*tensor=*/0, Residency::kSwap, 64.0, 1e-6});

  PartitionPlan scheduled_pipeline = plan;
  scheduled_pipeline.memory_schedule = schedule;
  EXPECT_EQ(ValidatePlanForGraph(narrow.graph, scheduled_pipeline).code(),
            StatusCode::kInvalidArgument);
  Result<PartitionPlan> reloaded = PlanFromJson(PlanToJson(scheduled_pipeline));
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kInvalidArgument);

  PipelinePlan stages = *plan.pipeline;
  stages.stages[1].plan.memory_schedule = schedule;
  PartitionPlan scheduled_stage = plan;
  scheduled_stage.pipeline = std::make_shared<const PipelinePlan>(stages);
  const Status status = ValidatePlanForGraph(narrow.graph, scheduled_stage);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "stage 1 inner plan is not pure (it carries a memory_schedule)");
  reloaded = PlanFromJson(PlanToJson(scheduled_stage));
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kInvalidArgument);

  // The same schedule on a pure plan is the v4 document the repair pass writes.
  const PartitionPlan& scheduled_pure = stages.stages[1].plan;
  EXPECT_TRUE(ValidatePlanForGraph(narrow.graph, scheduled_pure).ok());
  reloaded = PlanFromJson(PlanToJson(scheduled_pure));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NE(reloaded->memory_schedule, nullptr);
}

TEST(PlanValidate, RejectsHybridPlansWithBrokenStageCoverage) {
  ModelGraph narrow = NarrowModel();
  const PartitionPlan plan = HybridPlan(narrow);
  ASSERT_TRUE(ValidatePlanForGraph(narrow.graph, plan).ok());
  ASSERT_GE(plan.pipeline->num_stages, 2);

  // Worker ranges must tile [0, W) in order.
  {
    PipelinePlan broken = *plan.pipeline;
    broken.stages[1].first_worker += 1;
    PartitionPlan mutated = plan;
    mutated.pipeline = std::make_shared<const PipelinePlan>(broken);
    EXPECT_EQ(ValidatePlanForGraph(narrow.graph, mutated).code(),
              StatusCode::kInvalidArgument);
  }
  // Group ranges must tile the macro-group sequence.
  {
    PipelinePlan broken = *plan.pipeline;
    broken.stages[0].last_group += 1;
    PartitionPlan mutated = plan;
    mutated.pipeline = std::make_shared<const PipelinePlan>(broken);
    EXPECT_EQ(ValidatePlanForGraph(narrow.graph, mutated).code(),
              StatusCode::kInvalidArgument);
  }
  // Dropping a stage breaks the claimed stage count.
  {
    PipelinePlan broken = *plan.pipeline;
    broken.stages.pop_back();
    PartitionPlan mutated = plan;
    mutated.pipeline = std::make_shared<const PipelinePlan>(broken);
    EXPECT_EQ(ValidatePlanForGraph(narrow.graph, mutated).code(),
              StatusCode::kInvalidArgument);
  }
  // A hybrid plan owns no top-level steps; the stages do.
  {
    PartitionPlan mutated = plan;
    mutated.steps = plan.pipeline->stages[0].plan.steps;
    EXPECT_EQ(ValidatePlanForGraph(narrow.graph, mutated).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(PlanJson, RejectsMalformedDocuments) {
  // Not JSON at all.
  EXPECT_EQ(PlanFromJson("not json").status().code(), StatusCode::kInvalidArgument);
  // Valid JSON, wrong shape.
  EXPECT_FALSE(PlanFromJson("[1, 2, 3]").ok());
  EXPECT_FALSE(PlanFromJson("{}").ok());
  // Wrong schema tag.
  EXPECT_FALSE(PlanFromJson(R"({"schema": "tofu.plan.v999"})").ok());
}

TEST(PlanJson, RejectsInconsistentSteps) {
  ModelGraph model = SmallModel();
  PartitionPlan plan = PlanFor(model, 8);

  PartitionPlan dropped = plan;
  dropped.steps.pop_back();  // steps vs step_factors mismatch
  EXPECT_FALSE(PlanFromJson(PlanToJson(dropped)).ok());

  PartitionPlan skewed = plan;
  skewed.steps[0].ways = 3;  // ways vs step_factors mismatch
  EXPECT_FALSE(PlanFromJson(PlanToJson(skewed)).ok());
}

TEST(PlanValidate, RejectsPlansForOtherGraphs) {
  ModelGraph model = SmallModel();
  PartitionPlan plan = PlanFor(model, 8);
  EXPECT_TRUE(ValidatePlanForGraph(model.graph, plan).ok());

  // A different graph: tensor/op counts no longer line up.
  MlpConfig other_config;
  other_config.layer_sizes = {128, 64};
  other_config.batch = 16;
  ModelGraph other = BuildMlp(other_config);
  EXPECT_EQ(ValidatePlanForGraph(other.graph, plan).code(),
            StatusCode::kInvalidArgument);

  // A cut along a dimension the tensor does not have.
  PartitionPlan corrupt = plan;
  corrupt.steps[0].tensor_cut[0] = 99;
  EXPECT_EQ(ValidatePlanForGraph(model.graph, corrupt).code(),
            StatusCode::kInvalidArgument);

  // A strategy index past the op's discovered strategy list (would index out of bounds
  // when lowering).
  PartitionPlan bad_strategy = plan;
  bad_strategy.steps[0].op_strategy[0] = 999;
  EXPECT_EQ(ValidatePlanForGraph(model.graph, bad_strategy).code(),
            StatusCode::kInvalidArgument);

  // Step factors that do not multiply to the worker count.
  PartitionPlan wrong_product = plan;
  wrong_product.num_workers = 16;
  EXPECT_FALSE(ValidatePlanForGraph(model.graph, wrong_product).ok());

  // A step without its weighted cost, which the session's step pricing reads (a plan
  // planted in the plan cache must not reach it).
  PartitionPlan unweighted = plan;
  unweighted.weighted_step_costs.pop_back();
  EXPECT_EQ(ValidatePlanForGraph(model.graph, unweighted).code(),
            StatusCode::kInvalidArgument);

  // Crafted factor lists whose product would overflow are rejected early (no UB).
  PartitionPlan huge = plan;
  huge.step_factors.assign(4, 1 << 30);
  EXPECT_EQ(ValidatePlanForGraph(model.graph, huge).code(),
            StatusCode::kInvalidArgument);
}

// ValidatePlanForGraph resolves each op's strategy count once per call and shares it
// across steps and hybrid stages; the first violation still wins, with its own message.
TEST(PlanValidate, LaterStepViolationsKeepTheirCodeAndMessage) {
  ModelGraph model = SmallModel();
  const PartitionPlan plan = PlanFor(model, 8);
  ASSERT_EQ(plan.steps.size(), 3u);

  PartitionPlan bad = plan;
  bad.steps[2].op_strategy[1] = 999;
  Status status = ValidatePlanForGraph(model.graph, bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "step 2: op 1 ('add_bias') strategy index 999 outside its 2 discovered "
            "strategies");

  // An earlier step's violation is reported first.
  bad.steps[0].op_strategy[3] = -5;
  status = ValidatePlanForGraph(model.graph, bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "step 0: op 3 ('matmul') strategy index -5 outside its 3 discovered "
            "strategies");

  // An unregistered op is only looked up where a step executes it sharded.
  PartitionPlan late = plan;
  late.steps[0].op_strategy[0] = kReplicatedExec;
  late.steps[1].op_strategy[0] = kReplicatedExec;
  late.steps[2].op_strategy[0] = 0;
  model.graph.op(0).type = "nonexistent_op";
  status = ValidatePlanForGraph(model.graph, late);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(),
            "step 2: op 0 type 'nonexistent_op' has no TDL registry entry");
}

TEST(PlanValidate, StageViolationsKeepTheStagePrefix) {
  ModelGraph narrow = NarrowModel();
  const PartitionPlan plan = HybridPlan(narrow);
  ASSERT_NE(plan.pipeline, nullptr);
  ASSERT_GE(plan.pipeline->num_stages, 2);
  ASSERT_FALSE(plan.pipeline->stages[1].plan.steps.empty());

  PipelinePlan broken = *plan.pipeline;
  broken.stages[1].plan.steps[0].op_strategy[0] = 999;
  PartitionPlan mutated = plan;
  mutated.pipeline = std::make_shared<const PipelinePlan>(broken);
  const Status status = ValidatePlanForGraph(narrow.graph, mutated);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "stage 1: step 0: op 0 ('matmul') strategy index 999 outside its 3 "
            "discovered strategies");
}

}  // namespace
}  // namespace tofu
