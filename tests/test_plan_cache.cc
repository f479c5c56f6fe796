// Sharded LRU plan-cache tests: per-shard eviction order, the capacity-1 clamp that
// keeps tiny caches exact, overwrite/erase/clear semantics, the eviction counter, a
// seeded-random property test against a reference single-list LRU model, and the
// Session-level collision fall-through (a cached plan that fails validation against
// the request's graph is recounted and replaced, never served).
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/util/sharded_lru.h"

namespace tofu {
namespace {

TEST(ShardedLruCache, LookupMissesOnEmptyAndAfterErase) {
  ShardedLruCache<int> cache(/*capacity=*/4, /*num_shards=*/2);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 1);
  cache.Erase("a");
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedWithinAShard) {
  // One shard makes the global order the shard order.
  ShardedLruCache<int> cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("c", 3);
  // Touch "a": "b" becomes the eviction victim.
  ASSERT_TRUE(cache.Lookup("a").has_value());
  cache.Insert("d", 4);
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(ShardedLruCache, OldestFirstOrderIsObservable) {
  ShardedLruCache<int> cache(/*capacity=*/4, /*num_shards=*/1);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("c", 3);
  ASSERT_TRUE(cache.Lookup("b").has_value());  // promote
  const std::vector<std::string> keys = cache.ShardKeysOldestFirst(0);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "c");
  EXPECT_EQ(keys[2], "b");
}

TEST(ShardedLruCache, OverwriteReplacesValueAndRefreshesRecency) {
  ShardedLruCache<int> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("a", 10);  // overwrite: newest now, size unchanged
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Lookup("a"), 10);
  cache.Insert("c", 3);  // evicts "b", the true LRU
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
}

TEST(ShardedLruCache, CapacityOneClampsShardsAndStaysExact) {
  // Eight requested shards with capacity 1 must behave as one exact single-entry
  // cache, not eight one-entry shards (which would hold up to 8 values).
  ShardedLruCache<int> cache(/*capacity=*/1, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("b").has_value());
}

TEST(ShardedLruCache, ZeroCapacityCachesNothing) {
  ShardedLruCache<int> cache(/*capacity=*/0, /*num_shards=*/4);
  cache.Insert("a", 1);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCache, ClearEmptiesEveryShard) {
  ShardedLruCache<int> cache(/*capacity=*/64, /*num_shards=*/8);
  for (int i = 0; i < 32; ++i) cache.Insert("key" + std::to_string(i), i);
  EXPECT_EQ(cache.size(), 32u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(cache.Lookup("key" + std::to_string(i)).has_value());
  }
}

TEST(ShardedLruCache, KeysSpreadAcrossShards) {
  ShardedLruCache<int> cache(/*capacity=*/256, /*num_shards=*/8);
  ASSERT_EQ(cache.num_shards(), 8u);
  std::vector<int> per_shard(8, 0);
  for (int i = 0; i < 64; ++i) {
    per_shard[cache.ShardIndex("key" + std::to_string(i))] += 1;
  }
  int populated = 0;
  for (int count : per_shard) populated += count > 0 ? 1 : 0;
  // A mixed hash would have to be catastrophically bad to land 64 keys on one shard.
  EXPECT_GE(populated, 2);
}

// Reference model: a single std::list-based LRU with the same capacity. With one
// shard the cache must match it operation for operation.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  void Insert(const std::string& key, int value) {
    if (capacity_ == 0) return;
    auto it = FindEntry(key);
    if (it != entries_.end()) entries_.erase(it);
    while (entries_.size() >= capacity_) entries_.pop_front();
    entries_.emplace_back(key, value);
  }

  bool Lookup(const std::string& key, int* value) {
    auto it = FindEntry(key);
    if (it == entries_.end()) return false;
    *value = it->second;
    entries_.splice(entries_.end(), entries_, it);  // promote to newest
    return true;
  }

  void Erase(const std::string& key) {
    auto it = FindEntry(key);
    if (it != entries_.end()) entries_.erase(it);
  }

  size_t size() const { return entries_.size(); }

 private:
  std::list<std::pair<std::string, int>>::iterator FindEntry(const std::string& key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) return it;
    }
    return entries_.end();
  }

  size_t capacity_;
  std::list<std::pair<std::string, int>> entries_;  // oldest first
};

TEST(ShardedLruCache, SeededRandomOpsMatchReferenceModel) {
  ShardedLruCache<int> cache(/*capacity=*/8, /*num_shards=*/1);
  ReferenceLru reference(8);
  std::uint64_t state = 0x5eed5eed5eedull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::string key = "k" + std::to_string(next() % 24);  // 24 keys over cap 8
    switch (next() % 4) {
      case 0:
      case 1: {  // insert (twice as likely, keeps the cache churning)
        const int value = static_cast<int>(next() % 1000);
        cache.Insert(key, value);
        reference.Insert(key, value);
        break;
      }
      case 2: {  // lookup: presence AND value must agree
        int expected = 0;
        const bool reference_hit = reference.Lookup(key, &expected);
        std::optional<int> actual = cache.Lookup(key);
        ASSERT_EQ(actual.has_value(), reference_hit) << "step " << step << " " << key;
        if (reference_hit) ASSERT_EQ(*actual, expected) << "step " << step;
        break;
      }
      case 3:
        cache.Erase(key);
        reference.Erase(key);
        break;
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
  }
}

// ---------------------------------------------------------------- Session level

ModelGraph CacheMlp() {
  MlpConfig config;
  config.layer_sizes = {128, 64, 10};
  config.batch = 16;
  return BuildMlp(config);
}

TEST(SessionPlanCache, CollisionFallsThroughToFreshSearchAndHeals) {
  ModelGraph model = CacheMlp();
  // Structurally different (one weight layer fewer), so its plan cannot validate.
  ModelGraph other = BuildMlp(MlpConfig{8, {32, 16}, true});
  Session session(DeviceTopology::Uniform(4));

  PartitionRequest request;
  request.graph = &model.graph;

  // Plant a plan for a DIFFERENT graph under this request's key, as a forged 64-bit
  // signature collision would.
  Session scratch(DeviceTopology::Uniform(4));
  PartitionRequest other_request;
  other_request.graph = &other.graph;
  Result<PartitionResponse> other_plan = scratch.Partition(other_request);
  ASSERT_TRUE(other_plan.ok()) << other_plan.status().ToString();
  session.InsertPlanForTesting(request, *other_plan);

  Result<PartitionResponse> response = session.Partition(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->from_cache);  // the colliding entry must not be served
  EXPECT_EQ(session.cache_stats().collisions, 1);
  EXPECT_EQ(session.cache_stats().misses, 1);
  EXPECT_EQ(response->plan.steps.size(), 2u);  // 4 workers -> 2 halving steps

  // The bad entry was replaced: the same request now hits and serves the good plan.
  Result<PartitionResponse> again = session.Partition(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(session.cache_stats().hits, 1);
  EXPECT_EQ(session.cache_stats().collisions, 1);
}

// A planted plan for another graph, under a budget it exceeds: the budget verdict must
// not be worked out against the request's graph (its liveness pass would index the
// foreign plan with this graph's ids), and the request still searches afresh.
TEST(SessionPlanCache, BudgetedCollisionFallsThroughToFreshSearch) {
  ModelGraph model = CacheMlp();
  ModelGraph other = BuildMlp(MlpConfig{8, {32, 16}, true});
  Session session(DeviceTopology::Uniform(4));

  PartitionRequest request;
  request.graph = &model.graph;
  request.memory_budget_bytes = 1;  // nothing fits, the planted plan included

  Session scratch(DeviceTopology::Uniform(4));
  PartitionRequest other_request;
  other_request.graph = &other.graph;
  Result<PartitionResponse> other_plan = scratch.Partition(other_request);
  ASSERT_TRUE(other_plan.ok()) << other_plan.status().ToString();
  ASSERT_GT(other_plan->peak_shard_bytes, request.memory_budget_bytes);
  session.InsertPlanForTesting(request, *other_plan);

  Result<PartitionResponse> response = session.Partition(request);
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.cache_stats().collisions, 1);
  EXPECT_EQ(session.cache_stats().misses, 1);
}

TEST(SessionPlanCache, EvictionsSurfaceInStats) {
  ModelGraph a = BuildMlp(MlpConfig{16, {64, 32, 10}, true});
  ModelGraph b = BuildMlp(MlpConfig{16, {96, 48, 10}, true});
  ModelGraph c = BuildMlp(MlpConfig{16, {128, 64, 10}, true});
  Session session(DeviceTopology::Uniform(4), /*max_cached_plans=*/2,
                  /*cache_shards=*/1);
  for (ModelGraph* model : {&a, &b, &c, &a}) {
    PartitionRequest request;
    request.graph = &model->graph;
    ASSERT_TRUE(session.Partition(request).ok());
  }
  PlanCacheStats stats = session.cache_stats();
  // a, b cached; c evicts a; the second a request misses again.
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_GE(stats.evictions, 2);
}

}  // namespace
}  // namespace tofu
