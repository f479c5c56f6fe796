// Concurrency contract of the thread-safe Session, designed to run under
// ThreadSanitizer (the CI tsan job builds exactly this suite with -fsanitize=thread):
//   * N threads x M mixed requests against one Session return plans byte-identical to
//     a fresh single-threaded search, and the counters balance exactly --
//     hits + misses + coalesced == completed requests, misses == distinct keys;
//   * K threads racing one cold key trigger exactly one search (single-flight), with
//     the leader held mid-flight until every rider has coalesced, so the split is
//     deterministic: 1 miss, K-1 coalesced, 0 hits;
//   * a failing leader hands every rider the same Status and does not poison the key:
//     the next request searches afresh;
//   * eviction churn (a capacity far below the working set) keeps the counter
//     invariant and byte-identical plans;
//   * a concurrent memory-budget ladder (distinct plan-cache keys, shared step-table
//     cache) returns plans byte-identical to fresh single-threaded searches no matter
//     which thread warms the compilation cache first;
//   * hybrid (kHybrid) and pure (kTofu) requests racing on one graph stay on their own
//     cache keys with byte-identical deterministic plans, sharing the step-table cache;
//   * threads racing on a graph's cold GraphSignature memo all read one value, the one
//     an unshared identical graph computes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/partition/plan_io.h"

namespace tofu {
namespace {

// The mixed workload: structurally distinct small MLPs, each its own cache key.
std::vector<ModelGraph> DistinctModels() {
  std::vector<ModelGraph> models;
  for (std::int64_t width : {32, 48, 64, 96, 128, 160}) {
    MlpConfig config;
    config.layer_sizes = {width * 2, width, 10};
    config.batch = 16;
    models.push_back(BuildMlp(config));
  }
  return models;
}

// Canonical serialization for byte-comparison; wall time is the one legitimately
// nondeterministic field of a searched plan.
std::string PlanBytes(const PartitionResponse& response) {
  PartitionPlan plan = response.plan;
  plan.search_stats.wall_seconds = 0.0;
  return PlanToJson(plan);
}

TEST(SessionConcurrent, MixedRequestsAreByteIdenticalWithBalancedCounters) {
  std::vector<ModelGraph> models = DistinctModels();

  // Ground truth: a fresh single-threaded session per model.
  std::vector<std::string> expected;
  for (ModelGraph& model : models) {
    Session solo(DeviceTopology::Uniform(4));
    PartitionRequest request;
    request.graph = &model.graph;
    Result<PartitionResponse> response = solo.Partition(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    expected.push_back(PlanBytes(*response));
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 24;
  Session session(DeviceTopology::Uniform(4));
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        // Deterministic mixed schedule: every thread walks the models with a
        // different stride so identical keys collide across threads constantly.
        ModelGraph& model = models[(t * 7 + i) % models.size()];
        PartitionRequest request;
        request.graph = &model.graph;
        Result<PartitionResponse> response = session.Partition(request);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (PlanBytes(*response) != expected[(t * 7 + i) % models.size()]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const PlanCacheStats stats = session.cache_stats();
  // Every request is a hit, a miss, or a coalesced rider -- exactly one of the three,
  // with no lost counter updates.
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<std::int64_t>(kThreads) * kRequestsPerThread);
  // Single-flight + capacity above the working set: each distinct key pays for
  // exactly one search, no matter how the threads interleave.
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(models.size()));
  EXPECT_EQ(stats.collisions, 0);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(SessionConcurrent, SingleFlightRunsExactlyOneSearchForRacingThreads) {
  constexpr int kRacers = 6;
  std::vector<ModelGraph> models = DistinctModels();
  ModelGraph& model = models[0];
  Session session(DeviceTopology::Uniform(4));

  // Hold the (single) leader mid-flight until every other racer has joined the
  // flight, making the hit/miss/coalesced split deterministic instead of a race.
  std::atomic<int> searches{0};
  session.SetSearchStartHookForTesting([&](const std::string&) {
    searches.fetch_add(1);
    while (session.cache_stats().coalesced < kRacers - 1) {
      std::this_thread::yield();
    }
  });

  std::atomic<int> coalesced_responses{0};
  std::atomic<int> fresh_responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&]() {
      PartitionRequest request;
      request.graph = &model.graph;
      Result<PartitionResponse> response = session.Partition(request);
      if (!response.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (response->coalesced) coalesced_responses.fetch_add(1);
      if (!response->coalesced && !response->from_cache) fresh_responses.fetch_add(1);
    });
  }
  for (std::thread& racer : racers) racer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(searches.load(), 1);  // one search total, not one per racer
  EXPECT_EQ(fresh_responses.load(), 1);
  EXPECT_EQ(coalesced_responses.load(), kRacers - 1);
  const PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced, kRacers - 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST(SessionConcurrent, FailedLeaderSharesStatusAndDoesNotPoisonTheKey) {
  constexpr int kRacers = 6;
  std::vector<ModelGraph> models = DistinctModels();
  ModelGraph& model = models[0];
  const std::string original_type = model.graph.op(0).type;
  model.graph.op(0).type = "nonexistent_op";  // registry scan will fail the search
  Session session(DeviceTopology::Uniform(4));
  session.SetSearchStartHookForTesting([&](const std::string&) {
    while (session.cache_stats().coalesced < kRacers - 1) {
      std::this_thread::yield();
    }
  });

  std::vector<Status> statuses(kRacers);
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&, t]() {
      PartitionRequest request;
      request.graph = &model.graph;
      Result<PartitionResponse> response = session.Partition(request);
      statuses[t] = response.status();
    });
  }
  for (std::thread& racer : racers) racer.join();

  // Leader and every rider see the same failure.
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    EXPECT_EQ(status.message(), statuses[0].message());
  }
  PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced, kRacers - 1);

  // The error was not cached: a later identical request runs a fresh search (which
  // fails the same way) rather than replaying a poisoned entry -- and once the graph
  // is healed, the same key searches successfully.
  session.SetSearchStartHookForTesting(nullptr);
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> retry = session.Partition(request);
  ASSERT_FALSE(retry.ok());
  EXPECT_EQ(retry.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.cache_stats().misses, 2);  // it searched again

  model.graph.op(0).type = original_type;  // heal the graph
  Result<PartitionResponse> healed = session.Partition(request);
  EXPECT_TRUE(healed.ok()) << healed.status().ToString();
}

TEST(SessionConcurrent, EvictionChurnKeepsInvariantAndDeterminism) {
  std::vector<ModelGraph> models = DistinctModels();
  std::vector<std::string> expected;
  for (ModelGraph& model : models) {
    Session solo(DeviceTopology::Uniform(4));
    PartitionRequest request;
    request.graph = &model.graph;
    Result<PartitionResponse> response = solo.Partition(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(PlanBytes(*response));
  }

  // Capacity 2 under a 6-key working set: constant eviction and re-search.
  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 12;
  Session session(DeviceTopology::Uniform(4), /*max_cached_plans=*/2,
                  /*cache_shards=*/4);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const size_t pick = (t * 5 + i * 3) % models.size();
        PartitionRequest request;
        request.graph = &models[pick].graph;
        Result<PartitionResponse> response = session.Partition(request);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (PlanBytes(*response) != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<std::int64_t>(kThreads) * kRequestsPerThread);
  EXPECT_GT(stats.evictions, 0);
  // Evicted keys re-search, so misses exceed the distinct-key count here.
  EXPECT_GE(stats.misses, static_cast<std::int64_t>(models.size()));
}

TEST(SessionConcurrent, ConcurrentBudgetLadderSharesStepTablesDeterministically) {
  // Different budgets against one graph are distinct plan-cache keys, so every thread
  // genuinely searches -- all of them hitting the session's shared step-table cache
  // (partition/dp.h), whose concurrent lookup/insert/merge this exercises under TSan.
  // Plans must stay byte-identical to fresh single-threaded searches regardless of
  // which thread warmed the cache first.
  MlpConfig config;
  config.layer_sizes = {256, 256, 64};
  config.batch = 32;
  ModelGraph model = BuildMlp(config);
  Session probe(DeviceTopology::Uniform(4));
  PartitionRequest unbudgeted;
  unbudgeted.graph = &model.graph;
  Result<PartitionResponse> base = probe.Partition(unbudgeted);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const std::int64_t all = base->all_resident_bytes;
  const std::int64_t budgets[] = {0, all, all * 7 / 8, all * 3 / 4, all * 5 / 8};

  std::vector<std::string> expected;
  for (std::int64_t budget : budgets) {
    Session solo(DeviceTopology::Uniform(4));
    PartitionRequest request;
    request.graph = &model.graph;
    request.memory_budget_bytes = budget;
    Result<PartitionResponse> response = solo.Partition(request);
    ASSERT_TRUE(response.ok()) << "budget=" << budget;
    expected.push_back(PlanBytes(*response));
  }

  // The unbudgeted rung compiles the step tables once, before the race, so every
  // budgeted rung's leader finds them no matter how the threads interleave.
  Session session(DeviceTopology::Uniform(4));
  Result<PartitionResponse> warm = session.Partition(unbudgeted);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(PlanBytes(*warm), expected[0]);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::size(budgets); ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 4; ++i) {
        const size_t pick = (t + i) % std::size(budgets);
        PartitionRequest request;
        request.graph = &model.graph;
        request.memory_budget_bytes = budgets[pick];
        Result<PartitionResponse> response = session.Partition(request);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (PlanBytes(*response) != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Every budgeted rung reused the unbudgeted rung's compilation.
  EXPECT_GE(session.step_table_cache_stats().hits, 4u);
}

TEST(SessionConcurrent, HybridAndPureRequestsRaceWithoutCrossTalk) {
  // kHybrid and kTofu against the same graph are distinct cache keys (the algorithm is
  // part of the key), and the hybrid search runs the SAME inner recursive DP against
  // the shared step-table cache. Threads alternating both algorithms must get plans
  // byte-identical to fresh single-threaded sessions -- no hybrid response ever leaking
  // from a pure key or vice versa, no matter who populates which cache first.
  MlpConfig config;
  config.layer_sizes = {4, 4, 4, 4, 4, 4, 4, 4};
  config.batch = 8;
  ModelGraph model = BuildMlp(config);
  const PartitionAlgorithm algorithms[] = {PartitionAlgorithm::kTofu,
                                           PartitionAlgorithm::kHybrid};
  // Budget 150 forces the hybrid search into a real multi-stage pipeline on this graph
  // (tests/test_pipeline.cc pins the goldens); the pure search runs unconstrained --
  // the session would reject a pure plan at this budget (its liveness floor is 192
  // bytes, which is the point of the hybrid escape hatch). Maximally different plans.
  const std::int64_t budgets[] = {0, 150};

  std::string expected[2];
  for (int a = 0; a < 2; ++a) {
    Session solo(DeviceTopology::Uniform(32));
    PartitionRequest request;
    request.graph = &model.graph;
    request.algorithm = algorithms[a];
    request.memory_budget_bytes = budgets[a];
    Result<PartitionResponse> response = solo.Partition(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    expected[a] = PlanBytes(*response);
  }
  ASSERT_NE(expected[0], expected[1]);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 8;
  Session session(DeviceTopology::Uniform(32));
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const int pick = (t + i) % 2;
        PartitionRequest request;
        request.graph = &model.graph;
        request.algorithm = algorithms[pick];
        request.memory_budget_bytes = budgets[pick];
        Result<PartitionResponse> response = session.Partition(request);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (PlanBytes(*response) != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<std::int64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(stats.misses, 2);  // one search per algorithm, single-flight absorbs races
}

TEST(SessionConcurrent, RacingReadersOfAColdSignatureMemoAgree) {
  MlpConfig config;
  config.layer_sizes = {512, 256, 128, 10};
  config.batch = 32;
  ModelGraph shared = BuildMlp(config);
  const std::uint64_t expected = GraphSignature(BuildMlp(config).graph);
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    shared.graph.op(0);  // mutable access: the memo is cold again
    std::atomic<int> ready{0};
    std::vector<std::uint64_t> seen(kThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
          std::this_thread::yield();
        }
        seen[static_cast<size_t>(i)] = GraphSignature(shared.graph);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (std::uint64_t value : seen) {
      EXPECT_EQ(value, expected) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace tofu
