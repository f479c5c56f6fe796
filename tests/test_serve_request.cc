// Serve-boundary validation: model specs whose tensor byte sizes overflow int64,
// negative memory fields, non-integral integer-array elements and bandwidths so small
// that a priced figure overflows come back as kInvalidArgument instead of planning on
// wrapped sizes or aborting. The overflow lines run clean under the ASan/UBSan job: the
// check multiplies and adds only after proving the result fits.
//
// Also the render slot: a cache hit re-serves the plan bytes rendered at the entry's
// first serve, byte-identical to a fresh render, for every algorithm and when several
// threads race to render one entry first (the TSan job runs this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/partition/plan_io.h"
#include "tofu/serve/request.h"
#include "tofu/serve/server.h"
#include "tofu/util/json.h"

namespace tofu {
namespace {

Status BuildStatus(const std::string& line) {
  Result<ServeRequest> request = ParseServeRequest(line);
  if (!request.ok()) {
    return request.status();
  }
  return BuildServeModel(*request).status();
}

void ExpectRejected(const std::string& line, const std::string& tensor) {
  const Status status = BuildStatus(line);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
  EXPECT_NE(status.message().find("'" + tensor + "'"), std::string::npos)
      << status.ToString();
}

TEST(ServeRequest, TensorBytesBeyondInt64AreInvalidArgument) {
  // [batch, seq_len, d_model] tokens: 2^62 * 64 elements.
  ExpectRejected(
      "{\"model\":\"transformer\",\"workers\":8,\"config\":{\"batch\":2147483647,"
      "\"seq_len\":2147483647,\"d_model\":64,\"d_ff\":64,\"heads\":4,\"layers\":1}}",
      "tokens");
  // A 2^32 x 2^32 weight: 2^64 elements.
  ExpectRejected(
      "{\"model\":\"mlp\",\"workers\":8,"
      "\"config\":{\"layer_sizes\":[4294967296,4294967296]}}",
      "fc0/w");
}

TEST(ServeRequest, GraphTotalBytesBeyondInt64AreInvalidArgument) {
  // Every tensor fits (the 2^30 x 2^30 weight is 2^62 bytes), but the weight and its
  // gradient together already reach 2^63.
  const Status status = BuildStatus(
      "{\"model\":\"mlp\",\"workers\":8,"
      "\"config\":{\"batch\":1,\"layer_sizes\":[1073741824,1073741824]}}");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("total bytes"), std::string::npos) << status.ToString();
}

TEST(ServeRequest, LargeButRepresentableSpecsStillBuild) {
  EXPECT_TRUE(BuildStatus("{\"model\":\"mlp\",\"workers\":8,"
                          "\"config\":{\"batch\":64,\"layer_sizes\":[65536,65536]}}")
                  .ok());
  EXPECT_TRUE(BuildStatus("{\"model\":\"transformer\",\"workers\":8}").ok());
}

TEST(ServeRequest, NegativeMemoryFieldsAreInvalidArgument) {
  for (const char* field : {"memory_bytes_per_worker", "memory_budget_bytes"}) {
    Result<ServeRequest> request = ParseServeRequest(
        std::string("{\"model\":\"mlp\",\"workers\":8,\"") + field + "\":-5}");
    ASSERT_FALSE(request.ok()) << field;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(request.status().message().find(field), std::string::npos);
  }
  EXPECT_TRUE(ParseServeRequest("{\"model\":\"mlp\",\"memory_bytes_per_worker\":0}").ok());
}

TEST(ServeRequest, OverflowingSpecIsAnErrorResponseNotAPlan) {
  PlanService service;
  const std::string response = HandleServeLine(
      service,
      "{\"id\":9,\"model\":\"mlp\",\"workers\":8,"
      "\"config\":{\"layer_sizes\":[4294967296,4294967296]}}",
      /*include_plan=*/false);
  Result<JsonValue> doc = ParseJson(response);
  ASSERT_TRUE(doc.ok()) << response;
  EXPECT_FALSE(*doc->BoolAt("ok"));
  EXPECT_EQ(*doc->StringAt("code"), "INVALID_ARGUMENT");
  EXPECT_EQ(*doc->IntAt("id"), 9);
}

TEST(ServeRequest, NonIntegralArrayElementsAreInvalidArgument) {
  // A fraction and a value beyond int64 in an integer array: both are rejected by
  // name, directly and as an error response, instead of aborting the daemon.
  for (const char* value : {"784.5", "1e300"}) {
    const std::string config =
        std::string("\"config\":{\"layer_sizes\":[") + value + ",10]}}";
    Result<ServeRequest> request =
        ParseServeRequest("{\"model\":\"mlp\",\"workers\":4," + config);
    ASSERT_FALSE(request.ok()) << value;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(request.status().message().find("'layer_sizes'"), std::string::npos)
        << request.status().ToString();

    PlanService service;
    const std::string response = HandleServeLine(
        service, "{\"id\":1,\"model\":\"mlp\",\"workers\":4," + config,
        /*include_plan=*/false);
    Result<JsonValue> doc = ParseJson(response);
    ASSERT_TRUE(doc.ok()) << response;
    EXPECT_FALSE(*doc->BoolAt("ok"));
    EXPECT_EQ(*doc->StringAt("code"), "INVALID_ARGUMENT");
    EXPECT_NE(doc->StringAt("error")->find("layer_sizes"), std::string::npos) << response;
    EXPECT_EQ(*doc->IntAt("id"), 1);  // the rejected line keeps its own id
  }
}

TEST(ServeRequest, RejectedLineAnswersWithItsRecoverableId) {
  // A line the request parser rejects answers with its own id when it is a JSON object
  // carrying an integral int64 id; a truncated line or a non-numeric id answers -1.
  struct Case {
    const char* line;
    std::int64_t id;
  };
  const Case kCases[] = {
      {R"({"id":1,"model":"mlp","workers":4,"config":{"layer_sizes":[784.5,10]}})", 1},
      {R"({"id":5,)", -1},
      {R"({"id":"x","model":"mlp"})", -1},
  };
  PlanService service;
  for (const Case& c : kCases) {
    const std::string response = HandleServeLine(service, c.line, /*include_plan=*/false);
    Result<JsonValue> doc = ParseJson(response);
    ASSERT_TRUE(doc.ok()) << response;
    EXPECT_FALSE(*doc->BoolAt("ok")) << c.line;
    EXPECT_EQ(*doc->IntAt("id"), c.id) << c.line;
  }
}

TEST(ServeRequest, OverflowingBandwidthIsAnErrorResponseWithItsId) {
  // 1e-320 passes the "> 0" check, but bytes / 1e-320 is inf: JSON cannot carry it,
  // and rendering it used to abort the daemon.
  for (const char* topology :
       {R"("level_bandwidths":[1e-320,1e-320])", R"("uniform_bandwidth":1e-320)"}) {
    const std::string line =
        std::string(R"({"id":3,"model":"mlp","workers":4,)") + topology + "}";
    PlanService service;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const std::string response = HandleServeLine(service, line, /*include_plan=*/true);
      Result<JsonValue> doc = ParseJson(response);
      ASSERT_TRUE(doc.ok()) << response;
      EXPECT_FALSE(*doc->BoolAt("ok")) << response;
      EXPECT_EQ(*doc->IntAt("id"), 3);
      EXPECT_EQ(*doc->StringAt("code"), "INVALID_ARGUMENT");
      EXPECT_NE(doc->StringAt("error")->find("step_seconds[0]"), std::string::npos)
          << response;
    }
    // Rejected before caching: the retry searched again instead of hitting.
    EXPECT_EQ(service.cache_stats().misses, 2) << line;
    EXPECT_EQ(service.cache_stats().hits, 0) << line;
  }
}

TEST(ServeRequest, NanBandwidthIsInvalidArgument) {
  const ModelGraph model = BuildMlp(MlpConfig{});
  PartitionRequest request;
  request.graph = &model.graph;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DeviceTopology levels = DeviceTopology::Uniform(4);
  levels.level_bandwidths = {21e9, nan};
  for (const DeviceTopology& topology : {DeviceTopology::Uniform(4, nan), levels}) {
    Session session(topology);
    Result<PartitionResponse> response = session.Partition(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(response.status().message().find("bandwidth"), std::string::npos)
        << response.status().ToString();
  }
}

// The "plan" member of an ok response line: everything after `,"plan":` up to the
// line's closing brace.
std::string PlanSection(const std::string& line) {
  const std::string marker = ",\"plan\":";
  const size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  const size_t begin = at + marker.size();
  return line.substr(begin, line.size() - 1 - begin);
}

struct HitCase {
  const char* name;
  const char* line;
  const char* schema;  // the plan document's tag
};

const HitCase kHitCases[] = {
    {"Tofu", R"({"id":1,"model":"mlp","workers":4,"config":{"batch":16,"layer_sizes":[64,32,10]}})",
     "tofu.plan.v2"},
    {"ICML18",
     R"({"id":1,"model":"mlp","workers":4,"algorithm":"ICML18","config":{"batch":16,"layer_sizes":[64,32,10]}})",
     "tofu.plan.v2"},
    {"EqualChop",
     R"({"id":1,"model":"rnn","workers":2,"algorithm":"EqualChop","config":{"layers":1,"hidden":32,"batch":4,"timesteps":2,"embed":16}})",
     "tofu.plan.v2"},
    {"Spartan", R"({"id":1,"model":"mlp","workers":4,"algorithm":"Spartan"})", "tofu.plan.v2"},
    {"AllRow-Greedy", R"({"id":1,"model":"mlp","workers":4,"algorithm":"AllRow-Greedy"})",
     "tofu.plan.v2"},
    {"DataParallel", R"({"id":1,"model":"mlp","workers":4,"algorithm":"DataParallel"})",
     "tofu.plan.v2"},
    // No pure plan meets 150 B on this narrow graph: a multi-stage pipeline wins.
    {"Hybrid",
     R"({"id":1,"model":"mlp","workers":32,"algorithm":"Hybrid","memory_budget_bytes":150,"config":{"batch":8,"layer_sizes":[4,4,4,4,4,4,4,4]}})",
     "tofu.plan.v3"},
    // Below the default MLP's all-resident peak at 4 workers, above its offload floor:
    // kTofu's plan fits through a repair schedule.
    {"Tofu-repaired", R"({"id":1,"model":"mlp","workers":4,"memory_budget_bytes":700000})",
     "tofu.plan.v4"},
};

TEST(ServeRender, HitReservesTheMissBytesForEveryAlgorithm) {
  for (const HitCase& c : kHitCases) {
    SCOPED_TRACE(c.name);
    PlanService service;
    const std::string miss = HandleServeLine(service, c.line, /*include_plan=*/true);
    const std::string hit = HandleServeLine(service, c.line, /*include_plan=*/true);
    ASSERT_NE(miss.find("\"from_cache\":false"), std::string::npos) << miss;
    ASSERT_NE(hit.find("\"from_cache\":true"), std::string::npos) << hit;
    const std::string plan = PlanSection(miss);
    ASSERT_NE(plan.find(c.schema), std::string::npos) << plan.substr(0, 200);
    EXPECT_EQ(PlanSection(hit), plan);

    // The cached response renders the same bytes from its plan, with its render slot
    // (filled by the serves above) and without one.
    Result<ServeRequest> request = ParseServeRequest(c.line);
    ASSERT_TRUE(request.ok());
    Result<PartitionResponse> cached = service.Partition(*request);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ASSERT_TRUE(cached->from_cache);
    ASSERT_NE(cached->plan_json, nullptr);
    EXPECT_EQ(PlanToJson(cached->plan), plan);
    EXPECT_EQ(PlanSection(ServeResponseLine(*request, cached, 0.0, /*include_plan=*/true)),
              plan);
    PartitionResponse bare = *cached;
    bare.plan_json = nullptr;
    EXPECT_EQ(PlanSection(ServeResponseLine(*request, bare, 0.0, /*include_plan=*/true)),
              plan);
  }
}

TEST(ServeRender, RacingFirstRendersServeOneDocument) {
  // Warm the entry through Session::Partition, which leaves its render slot empty, then
  // release every thread at once to race to be the first to render it. Several fresh
  // services, so the race is run more than once.
  const std::string line =
      R"({"id":1,"model":"mlp","workers":8,"memory_budget_bytes":400000})";
  Result<ServeRequest> request = ParseServeRequest(line);
  ASSERT_TRUE(request.ok());
  constexpr int kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    PlanService service;
    Result<PartitionResponse> warm = service.Partition(*request);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_FALSE(warm->from_cache);
    const std::string expected = PlanToJson(warm->plan);

    std::atomic<int> waiting{kThreads};
    std::vector<std::string> responses(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        responses[t] = HandleServeLine(service, line, /*include_plan=*/true);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::string& response : responses) {
      EXPECT_NE(response.find("\"from_cache\":true"), std::string::npos)
          << response.substr(0, 300);
      EXPECT_EQ(PlanSection(response), expected);
    }
    EXPECT_EQ(service.cache_stats().misses, 1);
  }
}

}  // namespace
}  // namespace tofu
