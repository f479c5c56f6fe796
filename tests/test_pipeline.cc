// Hybrid pipeline x Tofu subsystem tests (pipeline/):
//   * the stage cost model's bookkeeping is conservative -- every op lands in exactly
//     one macro group, crossing bytes vanish at the graph's end, state prefix sums are
//     additive, and per-group pass times scale down with workers;
//   * the analytic 1F1B makespan is a true lower bound of the event-driven 1F1B
//     schedule and stays within a constant of it (the differential contract
//     test_interconnect_diff applies to link pricing), including the unbalanced case
//     where the bottleneck is an EARLY stage and the classic (M-1)*bottleneck +
//     fill/drain formula is NOT a lower bound;
//   * HybridPartition's stage DP: deterministic stage goldens, a per-worker budget the
//     pure plan cannot meet forces a multi-stage plan whose every stage fits
//     (budget-infeasible -> more stages), and an S = 1 winner is a plan
//     byte-identical to RecursivePartition's;
//   * the session integration: kHybrid round-trips through AlgorithmFromName, a hybrid
//     response's memory figures are the max over stage-restricted peaks, and repeated
//     requests hit the plan cache;
//   * one memory verdict: under a budget the repair pass meets, kHybrid returns
//     kTofu's repaired plan, every HybridPartition plan round-trips through JSON with
//     pure stage plans, and AnalyzeLiveness without a stage mask is the whole-graph
//     buffer model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/memory/liveness.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/recursive.h"
#include "tofu/pipeline/compose.h"
#include "tofu/pipeline/pipeline_sim.h"
#include "tofu/pipeline/stage_cost.h"

namespace tofu {
namespace {

// Wide enough to give the recursion real choices, deep enough for 8 macro groups.
ModelGraph DeepMlp() {
  MlpConfig config;
  config.layer_sizes = {64, 64, 64, 64, 64, 64, 64, 64};
  config.batch = 32;
  return BuildMlp(config);
}

// Narrow on purpose: at 32 workers every tensor's split capacity is exhausted long
// before the worker count, so the pure plan must replicate state that a pipeline
// stage's workers never hold -- the regime where the budget lever below bites.
ModelGraph NarrowMlp() {
  MlpConfig config;
  config.layer_sizes = {4, 4, 4, 4, 4, 4, 4, 4};
  config.batch = 8;
  return BuildMlp(config);
}

std::string PlanBytes(PartitionPlan plan) {
  plan.search_stats.wall_seconds = 0.0;
  return PlanToJson(plan);
}

TEST(StageCost, EveryOpInExactlyOneGroupAndCrossingBytesVanishAtTheEnd) {
  ModelGraph model = DeepMlp();
  const CoarseGraph coarse = Coarsen(model.graph);
  const int G = static_cast<int>(coarse.groups.size());
  ASSERT_GT(G, 1);

  const std::vector<int> op_group = OpGroupIndex(model.graph, coarse);
  ASSERT_EQ(op_group.size(), static_cast<size_t>(model.graph.num_ops()));
  for (int g : op_group) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, G);
  }
  const StageCostModel cost(model.graph, coarse, K80Cluster());
  EXPECT_EQ(cost.num_groups(), G);
  // Nothing crosses the boundary after the last group; something crosses the middle.
  EXPECT_EQ(cost.ForwardCrossingBytes(G - 1), 0.0);
  EXPECT_EQ(cost.BackwardCrossingBytes(G - 1), 0.0);
  EXPECT_GT(cost.ForwardCrossingBytes(G / 2), 0.0);

  // State prefix sums are additive and cover the whole model exactly.
  const std::int64_t whole = cost.StateBytes(0, G - 1);
  EXPECT_GT(whole, 0);
  std::int64_t split = 0;
  for (int g = 0; g < G; ++g) {
    split += cost.StateBytes(g, g);
  }
  EXPECT_EQ(split, whole);
}

TEST(StageCost, PassSecondsScaleDownWithWorkersAndMicroBatches) {
  ModelGraph model = DeepMlp();
  const CoarseGraph coarse = Coarsen(model.graph);
  const StageCostModel cost(model.graph, coarse, K80Cluster());

  auto total = [&](int workers, int micro_batches) {
    std::vector<double> f;
    std::vector<double> b;
    cost.PerGroupPassSeconds(workers, micro_batches, &f, &b);
    double sum = 0.0;
    for (size_t g = 0; g < f.size(); ++g) {
      EXPECT_GE(f[g], 0.0);
      EXPECT_GE(b[g], 0.0);
      sum += f[g] + b[g];
    }
    return sum;
  };
  const double w1 = total(1, 1);
  const double w8 = total(8, 1);
  EXPECT_GT(w1, 0.0);
  // More workers shrink one full-batch pass, but never below the overhead floor.
  EXPECT_LT(w8, w1);
  // A micro-batch does at most a full batch's work.
  EXPECT_LE(total(8, 4), w8);
}

TEST(StageCoarse, FiltersUnitsButKeepsGlobalSlots) {
  ModelGraph model = DeepMlp();
  const CoarseGraph coarse = Coarsen(model.graph);
  const int G = static_cast<int>(coarse.groups.size());
  ASSERT_GE(G, 2);

  const CoarseGraph head = StageCoarse(coarse, 0, G / 2 - 1);
  const CoarseGraph tail = StageCoarse(coarse, G / 2, G - 1);
  // Global tensor->slot map is untouched; only units are filtered.
  EXPECT_EQ(head.tensor_slot, coarse.tensor_slot);
  EXPECT_EQ(head.slots.size(), coarse.slots.size());
  EXPECT_EQ(head.units.size() + tail.units.size(), coarse.units.size());
  EXPECT_EQ(head.groups.size() + tail.groups.size(), coarse.groups.size());

  const std::vector<char> mask = StageOpMask(model.graph, coarse, 0, G / 2 - 1);
  ASSERT_EQ(mask.size(), static_cast<size_t>(model.graph.num_ops()));
  const long in_stage = std::count(mask.begin(), mask.end(), 1);
  EXPECT_GT(in_stage, 0);
  EXPECT_LT(in_stage, model.graph.num_ops());
}

// Hand-built pipeline plans: the analytic bound must never exceed the event-driven
// 1F1B makespan, and must stay within 2x of it.
PipelinePlan SyntheticPlan(const std::vector<double>& fwd, const std::vector<double>& bwd,
                           const std::vector<double>& transfer, int micro_batches) {
  PipelinePlan plan;
  plan.num_stages = static_cast<int>(fwd.size());
  plan.micro_batches = micro_batches;
  for (size_t s = 0; s < fwd.size(); ++s) {
    PipelineStage stage;
    stage.fwd_seconds = fwd[s];
    stage.bwd_seconds = bwd[s];
    if (s + 1 < fwd.size()) {
      stage.transfer_fwd_seconds = transfer[s];
      stage.transfer_bwd_seconds = transfer[s];
    }
    plan.stages.push_back(stage);
    plan.bottleneck_seconds =
        std::max(plan.bottleneck_seconds, fwd[s] + bwd[s]);
  }
  plan.pipeline_seconds = AnalyticPipelineSeconds(plan);
  return plan;
}

TEST(PipelineSim, AnalyticLowerBoundsTheEventSchedule) {
  const struct {
    std::vector<double> fwd;
    std::vector<double> bwd;
    std::vector<double> transfer;
    int micro_batches;
    double sim_golden;  // recorded 1F1B makespan; the schedule must reproduce it exactly
  } cases[] = {
      // Balanced stages: analytic == classic (M-1)*bottleneck + fill/drain.
      {{1.0, 1.0, 1.0, 1.0}, {2.0, 2.0, 2.0, 2.0}, {0.1, 0.1, 0.1}, 8, 34.600000000000009},
      // Early bottleneck: the classic formula OVERSHOOTS the schedule here (stage 0
      // never stalls), so only the per-stage critical-path bound is safe.
      {{10.0, 1.0}, {10.0, 1.0}, {0.5}, 4, 80.0},
      // Late bottleneck.
      {{1.0, 1.0, 10.0}, {1.0, 1.0, 10.0}, {0.2, 0.2}, 6, 124.80000000000001},
      // Single stage: no pipeline at all, T = M * (f + b).
      {{3.0}, {4.0}, {}, 5, 35.0},
      // Transfer-dominated boundaries.
      {{1.0, 1.0}, {1.0, 1.0}, {5.0}, 4, 30.0},
  };
  for (const auto& c : cases) {
    const PipelinePlan plan = SyntheticPlan(c.fwd, c.bwd, c.transfer, c.micro_batches);
    const double analytic = AnalyticPipelineSeconds(plan);
    const double sim = Simulate1F1BSeconds(plan);
    EXPECT_DOUBLE_EQ(sim, c.sim_golden)
        << "S=" << plan.num_stages << " M=" << plan.micro_batches;
    EXPECT_GT(analytic, 0.0);
    EXPECT_GE(sim, analytic * (1.0 - 1e-12))
        << "S=" << plan.num_stages << " M=" << plan.micro_batches;
    EXPECT_LE(sim, analytic * 2.0)
        << "S=" << plan.num_stages << " M=" << plan.micro_batches;
  }
}

TEST(PipelineSim, BalancedStagesMatchTheClassicFormula) {
  const PipelinePlan plan =
      SyntheticPlan({2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}, {0.25, 0.25}, 6);
  // fill = (f + t) * (S-1), steady = M * (f + b), drain = (b + t) * (S-1).
  const double classic = 2 * (2.0 + 0.25) + 6 * (2.0 + 3.0) + 2 * (3.0 + 0.25);
  EXPECT_DOUBLE_EQ(AnalyticPipelineSeconds(plan), classic);
}

TEST(HybridPartition, OneStageDegeneratesToTheExactPurePlan) {
  // Unconstrained, this graph's comm is negligible and S = 1 wins: the hybrid answer
  // is the pure recursive plan, byte for byte.
  ModelGraph model = NarrowMlp();
  const PartitionPlan hybrid = HybridPartition(model.graph, 32);
  const PartitionPlan pure = RecursivePartition(model.graph, 32);
  EXPECT_EQ(hybrid.pipeline, nullptr);
  EXPECT_EQ(PlanBytes(hybrid), PlanBytes(pure));
}

TEST(HybridPartition, UnconstrainedSearchIsDeterministic) {
  ModelGraph model = NarrowMlp();
  const PartitionPlan a = HybridPartition(model.graph, 32);
  const PartitionPlan b = HybridPartition(model.graph, 32);
  EXPECT_EQ(PlanBytes(a), PlanBytes(b));
  EXPECT_EQ(PlanDigest(a), PlanDigest(b));
}

TEST(HybridPartition, BudgetThePurePlanCannotMeetForcesMoreStages) {
  ModelGraph model = NarrowMlp();
  const int kWorkers = 32;

  // Unconstrained, the pure plan wins on time (this graph's comm is negligible).
  const PartitionPlan unconstrained = HybridPartition(model.graph, kWorkers);
  EXPECT_EQ(unconstrained.pipeline, nullptr);

  // The budget-aware PURE search bottoms out above this budget: split capacity runs
  // out at 32 workers, so some state stays replicated on every worker.
  PartitionOptions options;
  options.memory_budget_bytes = 150;
  const PartitionPlan pure = RecursivePartition(model.graph, kWorkers, options);
  EXPECT_GT(LivenessPeakShardBytes(model.graph, pure), options.memory_budget_bytes);

  // The hybrid search escapes through the stage DP: more stages mean each worker
  // holds only its own stage's state, and every stage fits the budget.
  const PartitionPlan hybrid = HybridPartition(model.graph, kWorkers, options);
  ASSERT_NE(hybrid.pipeline, nullptr);
  EXPECT_GE(hybrid.pipeline->num_stages, 2);
  EXPECT_TRUE(hybrid.memory_feasible);
  for (const PipelineStage& stage : hybrid.pipeline->stages) {
    EXPECT_LE(stage.peak_bytes, options.memory_budget_bytes);
  }
}

TEST(HybridPartition, StageGoldensCoverTheGraphContiguously) {
  ModelGraph model = NarrowMlp();
  PartitionOptions options;
  options.memory_budget_bytes = 150;
  const PartitionPlan plan = HybridPartition(model.graph, 32, options);
  ASSERT_NE(plan.pipeline, nullptr);
  const PipelinePlan& pipe = *plan.pipeline;
  // Deterministic golden: the DP picks the two-stage cut at this budget.
  EXPECT_EQ(pipe.num_stages, 2);
  EXPECT_EQ(pipe.micro_batches, 8);
  ASSERT_EQ(pipe.stages.size(), static_cast<size_t>(pipe.num_stages));

  const CoarseGraph coarse = Coarsen(model.graph);
  const int G = static_cast<int>(coarse.groups.size());
  int next_group = 0;
  int next_worker = 0;
  for (const PipelineStage& stage : pipe.stages) {
    EXPECT_EQ(stage.first_group, next_group);
    EXPECT_LE(stage.first_group, stage.last_group);
    next_group = stage.last_group + 1;
    EXPECT_EQ(stage.first_worker, next_worker);
    EXPECT_EQ(stage.num_workers, 32 / pipe.num_stages);
    next_worker += stage.num_workers;
    // Inner plans span the whole graph and validate against it.
    EXPECT_TRUE(ValidatePlanForGraph(model.graph, stage.plan).ok());
    EXPECT_EQ(stage.plan.num_workers, stage.num_workers);
  }
  EXPECT_EQ(next_group, G);
  EXPECT_EQ(next_worker, 32);
  // Every boundary but the last carries activations forward.
  for (size_t s = 0; s + 1 < pipe.stages.size(); ++s) {
    EXPECT_GT(pipe.stages[s].activation_bytes, 0.0);
  }
  EXPECT_EQ(pipe.stages.back().activation_bytes, 0.0);
  // The stored analytic makespan matches a recomputation, and the 1F1B event
  // schedule respects the differential contract on a REAL composed plan too.
  EXPECT_DOUBLE_EQ(pipe.pipeline_seconds, AnalyticPipelineSeconds(pipe));
  const double sim = Simulate1F1BSeconds(pipe);
  EXPECT_DOUBLE_EQ(sim, 0.0029845172045542471);  // recorded 1F1B makespan golden
  EXPECT_GE(sim, pipe.pipeline_seconds * (1.0 - 1e-12));
  EXPECT_LE(sim, pipe.pipeline_seconds * 2.0);
}

TEST(SessionHybrid, AlgorithmNameRoundTripsAndResponseUsesStagePeaks) {
  Result<PartitionAlgorithm> parsed = AlgorithmFromName("Hybrid");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, PartitionAlgorithm::kHybrid);
  EXPECT_STREQ(AlgorithmName(PartitionAlgorithm::kHybrid), "Hybrid");

  ModelGraph model = NarrowMlp();
  Session session(DeviceTopology::Uniform(32));
  PartitionRequest request;
  request.graph = &model.graph;
  request.algorithm = PartitionAlgorithm::kHybrid;
  request.memory_budget_bytes = 150;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(response->plan.pipeline, nullptr);

  std::int64_t max_peak = 0;
  std::int64_t max_resident = 0;
  for (const PipelineStage& stage : response->plan.pipeline->stages) {
    max_peak = std::max(max_peak, stage.peak_bytes);
    max_resident = std::max(max_resident, stage.all_resident_bytes);
  }
  EXPECT_EQ(response->peak_shard_bytes, max_peak);
  EXPECT_EQ(response->all_resident_bytes, max_resident);
  EXPECT_EQ(response->estimated_comm_seconds,
            response->plan.estimated_comm_seconds);

  // Repeat is served from the plan cache, byte-identical.
  Result<PartitionResponse> repeat = session.Partition(request);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_cache);
  EXPECT_EQ(PlanBytes(repeat->plan), PlanBytes(response->plan));

  // A budget no stage count can meet is a recoverable kResourceExhausted, naming the
  // deficit, not a crash.
  PartitionRequest hopeless = request;
  hopeless.memory_budget_bytes = 32;
  Result<PartitionResponse> rejected = session.Partition(hopeless);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
}

ModelGraph Transformer4() {
  TransformerConfig config;
  config.layers = 4;
  return BuildTransformer(config);
}

// Budgets below Transformer-4's unconstrained Tofu peak on 16 workers, which the
// repair pass meets by offloading.
const double kBudgetFractions[] = {0.6, 0.7, 0.8, 0.9};

TEST(SessionHybrid, RepairableBudgetReturnsTheTofuPlan) {
  ModelGraph model = Transformer4();
  Session session(DeviceTopology::Uniform(16));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unconstrained = session.Partition(request);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status().ToString();
  const std::int64_t peak = unconstrained->peak_shard_bytes;
  EXPECT_EQ(peak, 16417036);

  for (double fraction : kBudgetFractions) {
    SCOPED_TRACE(fraction);
    request.memory_budget_bytes = static_cast<std::int64_t>(fraction * peak);
    request.algorithm = PartitionAlgorithm::kTofu;
    Result<PartitionResponse> tofu = session.Partition(request);
    request.algorithm = PartitionAlgorithm::kHybrid;
    Result<PartitionResponse> hybrid = session.Partition(request);
    ASSERT_TRUE(tofu.ok()) << tofu.status().ToString();
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    ASSERT_NE(tofu->plan.memory_schedule, nullptr);
    EXPECT_EQ(PlanDigest(hybrid->plan), PlanDigest(tofu->plan));
    EXPECT_EQ(hybrid->peak_shard_bytes, tofu->peak_shard_bytes);
    EXPECT_LE(hybrid->peak_shard_bytes, request.memory_budget_bytes);
  }
}

// Without offloading no candidate fits these budgets; the search then returns its
// lightest candidate -- the S = 1 lightest-cuts witness at 16,384,396 B, not a
// pipeline whose stages peak at 20-33 MiB -- so the session quotes the true floor of
// what it searched, with the pure plan's swap/recompute floor note.
TEST(SessionHybrid, InfeasibleBudgetQuotesTheLightestCandidate) {
  ModelGraph model = Transformer4();
  Session session(DeviceTopology::Uniform(16));
  PartitionRequest request;
  request.graph = &model.graph;
  request.algorithm = PartitionAlgorithm::kHybrid;
  request.options.memory_policy = MemoryPolicy::kNone;
  for (double fraction : kBudgetFractions) {
    SCOPED_TRACE(fraction);
    request.memory_budget_bytes = static_cast<std::int64_t>(fraction * 16417036);
    Result<PartitionResponse> response = session.Partition(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
    const std::string& message = response.status().message();
    EXPECT_NE(message.find("the lightest plan still needs 15.63 MiB per worker"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("minimum achievable peak with every buffer swapped or "
                           "recomputed"),
              std::string::npos)
        << message;
  }
}

TEST(HybridPartition, BudgetedPlansRoundTripWithPureStages) {
  // Every budgeted hybrid plan round-trips JSON and validates; a pipeline's stage plans
  // are pure. Returns whether the plan is a pipeline.
  auto check = [](const Graph& graph, int workers, const PartitionOptions& options) {
    const PartitionPlan plan = HybridPartition(graph, workers, options);
    const std::string json = PlanToJson(plan);
    Result<PartitionPlan> reloaded = PlanFromJson(json);
    EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    if (reloaded.ok()) {
      EXPECT_EQ(PlanToJson(*reloaded), json);
    }
    EXPECT_TRUE(ValidatePlanForGraph(graph, plan).ok());
    if (plan.pipeline == nullptr) {
      // S = 1 won: under kAuto it is the repaired plan, judged by its schedule.
      EXPECT_EQ(plan.memory_schedule != nullptr,
                options.memory_policy == MemoryPolicy::kAuto);
      return false;
    }
    EXPECT_EQ(plan.memory_schedule, nullptr);
    for (const PipelineStage& stage : plan.pipeline->stages) {
      EXPECT_EQ(stage.plan.memory_schedule, nullptr);
      EXPECT_EQ(stage.plan.pipeline, nullptr);
    }
    return true;
  };
  ModelGraph transformer = Transformer4();
  ModelGraph narrow = NarrowMlp();
  PartitionOptions options;
  options.step_bandwidths = {21e9};
  const std::int64_t peak = PlanPeakShardBytes(
      transformer.graph, RecursivePartition(transformer.graph, 16, options));
  int pipelines = 0;
  for (MemoryPolicy policy : {MemoryPolicy::kAuto, MemoryPolicy::kNone}) {
    SCOPED_TRACE(static_cast<int>(policy));
    options.memory_policy = policy;
    for (double fraction : kBudgetFractions) {
      SCOPED_TRACE(fraction);
      options.memory_budget_bytes = static_cast<std::int64_t>(fraction * peak);
      pipelines += check(transformer.graph, 16, options) ? 1 : 0;
    }
    // A budget only pipelines meet (BudgetThePurePlanCannotMeetForcesMoreStages).
    options.memory_budget_bytes = 150;
    pipelines += check(narrow.graph, 32, options) ? 1 : 0;
  }
  // The stage checks above are not vacuous.
  EXPECT_GT(pipelines, 0);
}

// The whole-graph buffer model written out on its own, without stage logic: the
// oracle AnalyzeLiveness with an empty mask must reproduce exactly.
LivenessAnalysis WholeGraphLiveness(const Graph& graph, const PartitionPlan& plan) {
  LivenessAnalysis live;
  live.num_ops = graph.num_ops();
  live.buffer = AliasRoots(graph);
  const size_t n = static_cast<size_t>(graph.num_tensors());
  live.buf_bytes.assign(n, 0);
  live.alloc_at.assign(n, -1);
  live.free_at.assign(n, -1);
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    const TensorNode& node = graph.tensor(t);
    const size_t b = static_cast<size_t>(live.buffer[static_cast<size_t>(t)]);
    live.buf_bytes[b] = std::max(live.buf_bytes[b], plan.ShardBytes(graph, t));
    if (static_cast<size_t>(t) == b) {
      live.alloc_at[b] = node.producer == kNoOp ? -1 : node.producer;
    }
    const int last_use = node.consumers.empty()
                             ? (node.producer == kNoOp ? -1 : live.num_ops)
                             : *std::max_element(node.consumers.begin(),
                                                 node.consumers.end());
    live.free_at[b] = std::max(live.free_at[b], last_use);
  }
  return live;
}

TEST(Liveness, EmptyStageMaskIsTheWholeGraphAnalysis) {
  TransformerConfig transformer;
  transformer.layers = 2;
  transformer.d_model = 64;
  transformer.d_ff = 256;
  transformer.seq_len = 16;
  WResNetConfig wresnet;
  wresnet.width = 1;
  wresnet.batch = 8;
  wresnet.image = 64;
  RnnConfig rnn;
  rnn.layers = 2;
  rnn.hidden = 256;
  rnn.batch = 16;
  rnn.timesteps = 4;
  rnn.embed = 64;
  std::vector<ModelGraph> models;
  models.push_back(BuildTransformer(transformer));
  models.push_back(BuildWResNet(wresnet));
  models.push_back(BuildRnn(rnn));

  for (ModelGraph& model : models) {
    SCOPED_TRACE(model.name);
    // State no op reads or writes is still resident on every worker.
    const TensorId orphan = model.graph.AddParam("orphan", {64, 64});
    const PartitionPlan plan = RecursivePartition(model.graph, 8);
    const LivenessAnalysis oracle = WholeGraphLiveness(model.graph, plan);
    const LivenessAnalysis live = AnalyzeLiveness(model.graph, plan);
    EXPECT_EQ(live.num_ops, oracle.num_ops);
    EXPECT_EQ(live.buffer, oracle.buffer);
    EXPECT_EQ(live.buf_bytes, oracle.buf_bytes);
    EXPECT_EQ(live.alloc_at, oracle.alloc_at);
    EXPECT_EQ(live.free_at, oracle.free_at);
    EXPECT_GT(live.buf_bytes[static_cast<size_t>(orphan)], 0);
    EXPECT_TRUE(live.IsModelState(orphan));
    EXPECT_EQ(PlanPeakShardBytes(model.graph, plan), SweepPeakBytes(oracle));
    EXPECT_EQ(LivenessPeakShardBytes(model.graph, plan), SweepPeakBytes(oracle));

    // A mask that keeps every op is NOT the empty mask: it drops exactly the tensors
    // no op touches.
    const std::vector<char> all(static_cast<size_t>(model.graph.num_ops()), 1);
    LivenessAnalysis masked = AnalyzeLiveness(model.graph, plan, all);
    EXPECT_EQ(masked.buf_bytes[static_cast<size_t>(orphan)], 0);
    masked.buf_bytes[static_cast<size_t>(orphan)] =
        oracle.buf_bytes[static_cast<size_t>(orphan)];
    EXPECT_EQ(masked.buf_bytes, oracle.buf_bytes);
    EXPECT_EQ(masked.alloc_at, oracle.alloc_at);
    EXPECT_EQ(masked.free_at, oracle.free_at);
  }
}

}  // namespace
}  // namespace tofu
