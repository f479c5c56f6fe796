// Serve-boundary validation: model specs whose tensor byte sizes overflow int64,
// negative memory fields and non-integral integer-array elements come back as
// kInvalidArgument instead of planning on wrapped sizes or aborting. The overflow lines run clean under the ASan/UBSan job: the check multiplies
// and adds only after proving the result fits.
#include <gtest/gtest.h>

#include <string>

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

}  // namespace
}  // namespace tofu
