// Session API tests: request/response happy path, every recoverable error path (no
// aborts), plan-cache semantics with hit/miss counters, incremental re-planning
// through the step-table cache (budget-ladder warm searches byte-identical to cold
// ones), and the topology-weighted search contract -- default topology reproduces the
// legacy plans bit-identically, and a skewed topology never does worse than the
// uniform plan evaluated on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/memory/liveness.h"
#include "tofu/models/mlp.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/plan_io.h"

namespace tofu {
namespace {

ModelGraph SmallMlp() {
  MlpConfig config;
  config.layer_sizes = {256, 256, 64};
  config.batch = 32;
  return BuildMlp(config);
}

TEST(Session, PartitionReturnsPopulatedResponse) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->from_cache);
  EXPECT_EQ(response->plan.num_workers, 8);
  EXPECT_EQ(response->plan.steps.size(), 3u);
  EXPECT_GT(response->peak_shard_bytes, 0);
  EXPECT_TRUE(response->fits_device_memory);  // a small MLP on a 12 GB device
  ASSERT_EQ(response->step_seconds.size(), 3u);
  for (double s : response->step_seconds) {
    EXPECT_GE(s, 0.0);
  }
  EXPECT_GT(response->estimated_comm_seconds, 0.0);
  EXPECT_GT(response->search_stats.states_explored, 0);
  // Step 0 crosses the 10 GB/s host link, steps 1-2 the 21 GB/s p2p links: the weighted
  // seconds must reflect the per-level bandwidths, not a uniform link.
  const ClusterSpec cluster = K80Cluster();
  EXPECT_DOUBLE_EQ(response->step_seconds[0],
                   response->plan.weighted_step_costs[0] / cluster.cpu_bandwidth);
  EXPECT_DOUBLE_EQ(response->step_seconds[1],
                   response->plan.weighted_step_costs[1] / cluster.p2p_bandwidth);
}

TEST(Session, NullGraphIsInvalidArgument) {
  Session session(DeviceTopology::Uniform(4));
  PartitionRequest request;  // graph left null
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, BadWorkerCountIsInvalidArgument) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(0));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, UnknownOperatorIsNotFoundNotAbort) {
  ModelGraph model = SmallMlp();
  // Simulate a graph that arrived from elsewhere referencing an op nobody registered.
  model.graph.op(0).type = "nonexistent_op";
  Session session(DeviceTopology::Uniform(4));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_NE(response.status().message().find("nonexistent_op"), std::string::npos);
}

TEST(Session, InfeasibleBudgetIsResourceExhaustedWithDeficit) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(4));
  PartitionRequest request;
  request.graph = &model.graph;
  request.memory_budget_bytes = 1;  // nothing fits in one byte
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status().message().find("deficit"), std::string::npos);
  // The search itself proved no configuration fits, and the message says so.
  EXPECT_NE(response.status().message().find("no searched configuration fits"),
            std::string::npos);

  // The budget is part of the cache key (it steers the search), so a retry with a
  // different budget is a fresh search -- which is exactly what can succeed where the
  // tight one failed -- while a repeated identical infeasible request is a hit that
  // fails fast without re-searching.
  EXPECT_EQ(session.cache_stats().misses, 1);
  request.memory_budget_bytes = 1ll << 40;
  Result<PartitionResponse> generous = session.Partition(request);
  ASSERT_TRUE(generous.ok()) << generous.status().ToString();
  EXPECT_LE(generous->peak_shard_bytes, request.memory_budget_bytes);
  EXPECT_FALSE(generous->from_cache);
  EXPECT_EQ(session.cache_stats().misses, 2);
  request.memory_budget_bytes = 1;
  EXPECT_EQ(session.Partition(request).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.cache_stats().hits, 1);    // served the cached infeasible verdict
  EXPECT_EQ(session.cache_stats().misses, 2);  // no re-search
}

TEST(Session, ExhaustedHitReturnsTheMissRefusalVerbatim) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(4));
  PartitionRequest request;
  request.graph = &model.graph;
  request.memory_budget_bytes = 1;
  Result<PartitionResponse> miss = session.Partition(request);
  Result<PartitionResponse> hit = session.Partition(request);
  ASSERT_FALSE(miss.ok());
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hit.status().code(), StatusCode::kResourceExhausted);
  // The stored refusal carries the floor the miss worked out.
  EXPECT_NE(miss.status().message().find("minimum achievable peak"), std::string::npos);
  EXPECT_EQ(hit.status().message(), miss.status().message());
  EXPECT_EQ(session.cache_stats().misses, 1);
  EXPECT_EQ(session.cache_stats().hits, 1);
}

TEST(Session, BindingDeviceMemoryBoundIsNamedInTheError) {
  ModelGraph model = SmallMlp();
  DeviceTopology topology = DeviceTopology::Uniform(4);
  topology.memory_bytes_per_worker = 1;  // device smaller than any request budget
  Session session(topology);
  PartitionRequest request;
  request.graph = &model.graph;
  request.memory_budget_bytes = 2;  // fails, but raising it cannot help
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status().message().find("memory_bytes_per_worker"),
            std::string::npos);
  EXPECT_NE(response.status().message().find("cannot help"), std::string::npos);

  // With the request budget as the binding bound the advice is to raise it.
  Session roomy(DeviceTopology::Uniform(4));
  Result<PartitionResponse> plain = roomy.Partition(request);
  ASSERT_FALSE(plain.ok());
  EXPECT_NE(plain.status().message().find("raise memory_budget_bytes"),
            std::string::npos);
  EXPECT_EQ(plain.status().message().find("cannot help"), std::string::npos);
}

// The bugfix this PR exists for: a budget the minimum-communication plan violates but
// some plan satisfies must come back Ok with a feasible plan, not kResourceExhausted.
TEST(Session, BudgetBelowMinCommPlanStillReturnsFeasiblePlan) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unconstrained = session.Partition(request);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status().ToString();
  ASSERT_GT(unconstrained->all_resident_bytes, unconstrained->peak_shard_bytes);

  // Below the min-comm plan's all-resident footprint: the pre-budget-aware session
  // (which compared that sum against the budget) failed this request outright.
  PartitionRequest squeezed = request;
  squeezed.memory_budget_bytes = unconstrained->all_resident_bytes - 1;
  Result<PartitionResponse> constrained = session.Partition(squeezed);
  ASSERT_TRUE(constrained.ok()) << constrained.status().ToString();
  EXPECT_LE(constrained->peak_shard_bytes, squeezed.memory_budget_bytes);
  // Memory feasibility can only cost communication, never win it.
  EXPECT_GE(constrained->plan.total_comm_bytes, unconstrained->plan.total_comm_bytes);

  // Tighten the screw until nothing fits: each Ok must honor its budget, and the walk
  // must end in kResourceExhausted -- returned only once no configuration fits.
  std::int64_t budget = constrained->peak_shard_bytes - 1;
  bool exhausted = false;
  for (int i = 0; i < 64 && !exhausted; ++i) {
    PartitionRequest probe = request;
    probe.memory_budget_bytes = budget;
    Result<PartitionResponse> r = session.Partition(probe);
    if (r.ok()) {
      EXPECT_LE(r->peak_shard_bytes, budget);
      budget = r->peak_shard_bytes - 1;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      exhausted = true;
    }
  }
  EXPECT_TRUE(exhausted);
}

TEST(Session, CachedAndFreshBudgetedResponsesAreByteIdentical) {
  ModelGraph model = SmallMlp();
  PartitionRequest request;
  request.graph = &model.graph;
  Session warm(DeviceTopology::Uniform(8));
  Result<PartitionResponse> baseline = warm.Partition(request);
  ASSERT_TRUE(baseline.ok());
  request.memory_budget_bytes = baseline->all_resident_bytes - 1;

  Result<PartitionResponse> first = warm.Partition(request);
  Result<PartitionResponse> cached = warm.Partition(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  EXPECT_EQ(PlanToJson(cached->plan), PlanToJson(first->plan));

  // A fresh session searching under the same (graph, budget) key produces the same
  // plan byte-for-byte, up to the wall clock of the search itself.
  Session fresh(DeviceTopology::Uniform(8));
  Result<PartitionResponse> refound = fresh.Partition(request);
  ASSERT_TRUE(refound.ok());
  auto comparable = [](PartitionPlan plan) {
    plan.search_stats.wall_seconds = 0.0;
    return PlanToJson(plan);
  };
  EXPECT_EQ(comparable(refound->plan), comparable(cached->plan));
  EXPECT_EQ(refound->peak_shard_bytes, cached->peak_shard_bytes);
}

// Incremental re-planning (partition/dp.h StepTableCache): requests against the same
// graph that differ only in memory budget recompile nothing -- each step's unit
// evaluators, byte tables, and dense cost tables are keyed on (graph structure, split
// factor, shapes) and re-served across the ladder -- and the warm searches must stay
// byte-identical to what a cold session computes, because imported tables hold exactly
// the values a refill would produce and every serialized counter counts
// required-not-computed work (docs/search.md, "Incremental re-planning").
TEST(Session, BudgetLadderReplansAreByteIdenticalToColdSearches) {
  MlpConfig config;
  config.layer_sizes = {1024, 1024, 1024, 512};
  config.batch = 128;
  ModelGraph model = BuildMlp(config);
  Session warm(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unbudgeted = warm.Partition(request);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  EXPECT_EQ(warm.step_table_cache_stats().hits, 0u);
  EXPECT_GT(warm.step_table_cache_stats().misses, 0u);

  auto comparable = [](PartitionPlan plan) {
    plan.search_stats.wall_seconds = 0.0;
    return PlanToJson(plan);
  };
  const std::int64_t all = unbudgeted->all_resident_bytes;
  for (std::int64_t budget : {all, all * 7 / 8, all * 3 / 4}) {
    PartitionRequest budgeted;
    budgeted.graph = &model.graph;
    budgeted.memory_budget_bytes = budget;
    Result<PartitionResponse> replan = warm.Partition(budgeted);
    ASSERT_TRUE(replan.ok()) << replan.status().ToString();
    EXPECT_FALSE(replan->from_cache);  // a new budget is a new plan-cache key

    Session cold(DeviceTopology::Uniform(8));
    Result<PartitionResponse> fresh = cold.Partition(budgeted);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(comparable(replan->plan), comparable(fresh->plan))
        << "budget=" << budget;
    EXPECT_EQ(replan->peak_shard_bytes, fresh->peak_shard_bytes);
  }
  // The ladder hit the step-table cache (same graph, same shapes, budget excluded
  // from the key) and at least one warm search imported tables instead of refilling.
  EXPECT_GT(warm.step_table_cache_stats().hits, 0u);

  PartitionRequest full_budget;
  full_budget.graph = &model.graph;
  full_budget.memory_budget_bytes = all;
  Session cold_full(DeviceTopology::Uniform(8));
  Result<PartitionResponse> warm_again = cold_full.Partition(full_budget);
  ASSERT_TRUE(warm_again.ok());
  EXPECT_EQ(warm_again->plan.search_stats.reused_table_entries, 0);
  Result<PartitionResponse> first_full = warm.Partition(full_budget);
  ASSERT_TRUE(first_full.ok());
  EXPECT_TRUE(first_full->from_cache);  // same budget as rung 1: plan cache serves it
}

TEST(Session, StepTableReuseIsCountedButNeverSerialized) {
  // The warm rung's plan must show reuse in the in-memory stats while its JSON stays
  // byte-identical to a cold search -- reused_table_entries is diagnostic only.
  MlpConfig config;
  config.layer_sizes = {1024, 1024, 1024, 512};
  config.batch = 128;
  ModelGraph model = BuildMlp(config);
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> cold = session.Partition(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->plan.search_stats.reused_table_entries, 0);

  PartitionRequest budgeted;
  budgeted.graph = &model.graph;
  budgeted.memory_budget_bytes = cold->all_resident_bytes;
  Result<PartitionResponse> warm = session.Partition(budgeted);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->plan.search_stats.reused_table_entries, 0);
  EXPECT_EQ(warm->plan.search_stats.states_explored +
                warm->plan.search_stats.cost_table_entries,
            [&] {
              Session fresh(DeviceTopology::Uniform(8));
              Result<PartitionResponse> f = fresh.Partition(budgeted);
              return f.ok() ? f->plan.search_stats.states_explored +
                                  f->plan.search_stats.cost_table_entries
                            : -1;
            }());
  // PlanToJson never carries the reuse counter: a warm and a cold plan serialize to
  // the same bytes even though their in-memory diagnostics differ.
  const std::string json = PlanToJson(warm->plan);
  EXPECT_EQ(json.find("reused"), std::string::npos);
  EXPECT_EQ(json.find("dominated"), std::string::npos);
}

TEST(Session, CacheHitValidatesPlanAndRecoversFromSignatureCollision) {
  // Forge what a 64-bit GraphSignature collision would look like: the cache holds a
  // response whose plan belongs to a structurally different graph.
  MlpConfig other_config;
  other_config.layer_sizes = {128, 64};
  other_config.batch = 16;
  ModelGraph other = BuildMlp(other_config);
  Session poisoned(DeviceTopology::Uniform(4));
  PartitionRequest other_request;
  other_request.graph = &other.graph;
  Result<PartitionResponse> other_response = poisoned.Partition(other_request);
  ASSERT_TRUE(other_response.ok());

  ModelGraph model = SmallMlp();
  PartitionRequest request;
  request.graph = &model.graph;
  poisoned.InsertPlanForTesting(request, *other_response);  // wrong graph, right key

  Result<PartitionResponse> response = poisoned.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(poisoned.cache_stats().collisions, 1);
  EXPECT_FALSE(response->from_cache);  // fell through to a fresh search
  // The fresh plan validates against the request's graph and replaced the stale entry.
  EXPECT_TRUE(ValidatePlanForGraph(model.graph, response->plan).ok());
  Result<PartitionResponse> again = poisoned.Partition(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(poisoned.cache_stats().collisions, 1);  // no second collision
}

TEST(Session, LivenessPeakIsBelowAllResidentSum) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok());
  // The MLP's activations die as the chain advances, so the program-order peak is
  // strictly below the everything-at-once sum (which is what the old fits verdict
  // compared, spuriously reporting oversubscription).
  EXPECT_LT(response->peak_shard_bytes, response->all_resident_bytes);
  EXPECT_EQ(response->peak_shard_bytes,
            LivenessPeakShardBytes(model.graph, response->plan));
  EXPECT_EQ(response->all_resident_bytes,
            AllResidentShardBytes(model.graph, response->plan));
}

TEST(Session, ZeroBandwidthIsInvalidArgumentNotInfinity) {
  ModelGraph model = SmallMlp();
  PartitionRequest request;
  request.graph = &model.graph;

  Session zero_uniform(DeviceTopology::Uniform(4, 0.0));
  EXPECT_EQ(zero_uniform.Partition(request).status().code(),
            StatusCode::kInvalidArgument);

  DeviceTopology bad_level;
  bad_level.num_workers = 4;
  bad_level.level_bandwidths = {1e9, 0.0};
  Session zero_level(bad_level);
  EXPECT_EQ(zero_level.Partition(request).status().code(), StatusCode::kInvalidArgument);

  Session fine(DeviceTopology::Uniform(4));
  PartitionRequest bad_options = request;
  bad_options.options.step_bandwidths = {-1.0};
  EXPECT_EQ(fine.Partition(bad_options).status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, PlanCacheHitsOnRepeatedRequest) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;

  Result<PartitionResponse> first = session.Partition(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  EXPECT_EQ(session.cache_stats().hits, 0);
  EXPECT_EQ(session.cache_stats().misses, 1);

  Result<PartitionResponse> second = session.Partition(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(session.cache_stats().hits, 1);
  EXPECT_EQ(session.cache_stats().misses, 1);
  // The cached plan is byte-identical to the first response's.
  EXPECT_EQ(PlanToJson(second->plan), PlanToJson(first->plan));

  // A different request (another algorithm) is a miss, not a false hit.
  PartitionRequest other = request;
  other.algorithm = PartitionAlgorithm::kDataParallel;
  Result<PartitionResponse> third = session.Partition(other);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->from_cache);
  EXPECT_EQ(session.cache_stats().misses, 2);

  // A different graph with the same shape of request is also a miss.
  MlpConfig other_config;
  other_config.layer_sizes = {128, 64};
  other_config.batch = 16;
  ModelGraph model2 = BuildMlp(other_config);
  PartitionRequest changed = request;
  changed.graph = &model2.graph;
  (void)session.Partition(changed);
  EXPECT_EQ(session.cache_stats().misses, 3);

  session.ClearPlanCache();
  Result<PartitionResponse> after_clear = session.Partition(request);
  ASSERT_TRUE(after_clear.ok());
  EXPECT_FALSE(after_clear->from_cache);
}

TEST(Session, PlanCacheEvictsOldestWhenBounded) {
  ModelGraph model = SmallMlp();
  Session session(DeviceTopology::Uniform(4), /*max_cached_plans=*/1);
  PartitionRequest tofu_request;
  tofu_request.graph = &model.graph;
  PartitionRequest dp_request = tofu_request;
  dp_request.algorithm = PartitionAlgorithm::kDataParallel;

  (void)session.Partition(tofu_request);            // cached
  (void)session.Partition(dp_request);              // evicts the Tofu entry
  Result<PartitionResponse> tofu_again = session.Partition(tofu_request);
  ASSERT_TRUE(tofu_again.ok());
  EXPECT_FALSE(tofu_again->from_cache);             // was evicted, re-searched
  Result<PartitionResponse> tofu_third = session.Partition(tofu_request);
  ASSERT_TRUE(tofu_third.ok());
  EXPECT_TRUE(tofu_third->from_cache);              // newest entry survives

  // max_cached_plans = 0 disables caching entirely.
  Session uncached(DeviceTopology::Uniform(4), /*max_cached_plans=*/0);
  (void)uncached.Partition(tofu_request);
  Result<PartitionResponse> repeat = uncached.Partition(tofu_request);
  ASSERT_TRUE(repeat.ok());
  EXPECT_FALSE(repeat->from_cache);
  EXPECT_EQ(uncached.cache_stats().hits, 0);
}

TEST(Session, DefaultTopologyReproducesLegacyPlansBitIdentically) {
  ModelGraph model = SmallMlp();
  PartitionPlan legacy = RecursivePartition(model.graph, 8);

  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok());
  const PartitionPlan& plan = response->plan;

  EXPECT_EQ(plan.step_factors, legacy.step_factors);
  EXPECT_EQ(plan.total_comm_bytes, legacy.total_comm_bytes);
  EXPECT_EQ(plan.weighted_step_costs, legacy.weighted_step_costs);
  ASSERT_EQ(plan.steps.size(), legacy.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].tensor_cut, legacy.steps[i].tensor_cut);
    EXPECT_EQ(plan.steps[i].op_strategy, legacy.steps[i].op_strategy);
    EXPECT_EQ(plan.steps[i].comm_bytes, legacy.steps[i].comm_bytes);
  }

  // A one-shot, cache-less session plans identically.
  Result<PartitionResponse> one_shot =
      Session(DeviceTopology::Uniform(8), /*max_cached_plans=*/0).Partition(request);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(one_shot->plan.total_comm_bytes, legacy.total_comm_bytes);
}

// Evaluates a plan's communication time on a topology: weighted step bytes over the
// bandwidth of the link each step crosses (what Session reports as step_seconds).
double TimeOnTopology(const PartitionPlan& plan, const DeviceTopology& topology) {
  double total = 0.0;
  for (size_t i = 0; i < plan.weighted_step_costs.size(); ++i) {
    total += plan.weighted_step_costs[i] / topology.BandwidthForStep(i);
  }
  return total;
}

TEST(Session, SkewedTopologyNeverLosesToUniformPlanOnSameTopology) {
  // 6 workers factorize as {3, 2}: with distinct factors the ordering search has a real
  // choice. RNN per the acceptance criteria.
  RnnConfig config;
  config.layers = 2;
  config.hidden = 512;
  config.batch = 64;
  ModelGraph model = BuildRnn(config);

  DeviceTopology skewed;
  skewed.num_workers = 6;
  skewed.level_bandwidths = {2e9, 21e9};  // cross-group host link 10x slower than p2p

  Session skewed_session(skewed);
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> chosen = skewed_session.Partition(request);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();

  Session uniform_session(DeviceTopology::Uniform(6));
  Result<PartitionResponse> uniform = uniform_session.Partition(request);
  ASSERT_TRUE(uniform.ok());

  // The topology-aware search's pick, on the skewed topology, is at most the
  // uniform-topology plan's cost on that same topology (it considered that ordering).
  const double chosen_time = TimeOnTopology(chosen->plan, skewed);
  const double uniform_time = TimeOnTopology(uniform->plan, skewed);
  EXPECT_LE(chosen_time, uniform_time * (1.0 + 1e-12));
  EXPECT_DOUBLE_EQ(chosen->estimated_comm_seconds, chosen_time);

  // Both orderings produce valid 6-worker plans.
  EXPECT_EQ(chosen->plan.num_workers, 6);
  int product = 1;
  for (int f : chosen->plan.step_factors) {
    product *= f;
  }
  EXPECT_EQ(product, 6);
}

TEST(AlgorithmNames, RoundTripAndUnknown) {
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kTofu, PartitionAlgorithm::kIcml18,
        PartitionAlgorithm::kEqualChop, PartitionAlgorithm::kSpartan,
        PartitionAlgorithm::kAllRowGreedy, PartitionAlgorithm::kDataParallel}) {
    Result<PartitionAlgorithm> back = AlgorithmFromName(AlgorithmName(algorithm));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, algorithm);
  }
  Result<PartitionAlgorithm> unknown = AlgorithmFromName("NoSuchAlgorithm");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // The error names the valid spellings so CLI users can fix their flag.
  EXPECT_NE(unknown.status().message().find("Tofu"), std::string::npos);
}

TEST(GraphSignatures, SensitiveToStructureNotInstance) {
  ModelGraph a = SmallMlp();
  ModelGraph b = SmallMlp();
  EXPECT_EQ(GraphSignature(a.graph), GraphSignature(b.graph));
  b.graph.tensor(0).shape[0] += 1;
  EXPECT_NE(GraphSignature(a.graph), GraphSignature(b.graph));
}

// The graphs search-cold partitions (the paper's Table 1 plus Transformer-48), with the
// signatures they had before the signature was memoized: the memo must not move them.
struct PinnedGraph {
  const char* name;
  std::function<ModelGraph()> build;
  std::uint64_t signature;
};

std::vector<PinnedGraph> PinnedTable1Graphs() {
  return {
      {"WResNet-152-10",
       [] {
         WResNetConfig config;
         config.layers = 152;
         config.width = 10;
         config.batch = 8;
         return BuildWResNet(config);
       },
       0x84d44b466e4b8fddull},
      {"RNN-10-8K",
       [] {
         RnnConfig config;
         config.layers = 10;
         config.hidden = 8192;
         config.batch = 128;
         return BuildRnn(config);
       },
       0xd595ee126942eb2dull},
      {"Transformer-48",
       [] {
         TransformerConfig config;
         config.layers = 48;
         return BuildTransformer(config);
       },
       0x110f08120e886bd1ull},
  };
}

TEST(GraphSignatureMemo, MemoizedValueEqualsAFreshRecompute) {
  for (const PinnedGraph& pinned : PinnedTable1Graphs()) {
    ModelGraph memoized = pinned.build();
    const std::uint64_t first = GraphSignature(memoized.graph);
    EXPECT_EQ(first, pinned.signature) << pinned.name;
    // Served by the memo.
    EXPECT_EQ(GraphSignature(memoized.graph), first) << pinned.name;
    // An identical graph nobody has read yet computes the same value from scratch.
    ModelGraph fresh = pinned.build();
    EXPECT_EQ(GraphSignature(fresh.graph), first) << pinned.name;
  }
}

// Applies `mutate` to a graph whose signature was already read, and to a fresh build
// that was never read: both must report the changed signature.
void ExpectMutationClearsTheMemo(const char* mutator,
                                 const std::function<void(Graph*)>& mutate) {
  ModelGraph read = SmallMlp();
  const std::uint64_t before = GraphSignature(read.graph);
  mutate(&read.graph);
  const std::uint64_t after = GraphSignature(read.graph);
  EXPECT_NE(after, before) << mutator;
  ModelGraph unread = SmallMlp();
  mutate(&unread.graph);
  EXPECT_EQ(GraphSignature(unread.graph), after) << mutator;
}

TEST(GraphSignatureMemo, EveryMutatorClearsTheMemo) {
  ExpectMutationClearsTheMemo("AddInput", [](Graph* g) { g->AddInput("x2", {4, 4}); });
  ExpectMutationClearsTheMemo("AddOp", [](Graph* g) { g->AddOp("add", {}, {0, 0}); });
  ExpectMutationClearsTheMemo("tensor", [](Graph* g) { g->tensor(0).shape[0] += 1; });
  ExpectMutationClearsTheMemo("op", [](Graph* g) { g->op(0).timestep = 7; });
}

TEST(GraphSignatureMemo, MovesCarryTheSignatureAndLeaveAUsableSource) {
  ModelGraph model = SmallMlp();
  const std::uint64_t signature = GraphSignature(model.graph);
  Graph moved(std::move(model.graph));
  EXPECT_EQ(GraphSignature(moved), signature);
  Graph assigned;
  GraphSignature(assigned);  // memoize the empty graph's signature, then overwrite it
  assigned = std::move(moved);
  EXPECT_EQ(GraphSignature(assigned), signature);

  // The moved-from graph is empty and still builds; its signature tracks what it holds.
  EXPECT_EQ(GraphSignature(model.graph), GraphSignature(Graph()));
  model.graph.AddInput("x", {2, 3});
  EXPECT_EQ(model.graph.num_tensors(), 1);
  Graph expected;
  expected.AddInput("x", {2, 3});
  EXPECT_EQ(GraphSignature(model.graph), GraphSignature(expected));
}

}  // namespace
}  // namespace tofu
