// End-to-end smoke test for the tofu-pland binary, wired into CTest.
//
//   pland_smoke <path-to-tofu-pland>
//
// Pipes a small mixed batch (a duplicated MLP request, a tiny RNN, an unknown model,
// a malformed line, a budget-constrained Hybrid request, an out-of-range worker count,
// a spec whose tensor bytes overflow int64, a fractional layer size, and two
// bandwidths so small that the plan's comm time overflows to inf) through the daemon,
// then
// checks the stream contract: one response line per request, every line parses as
// schema tofu.serve.v1, each ok response's embedded plan replays through
// ValidatePlanForGraph against a freshly built graph, the duplicate is served without
// a second search (from_cache or coalesced), the hybrid response carries a real
// multi-stage tofu.plan.v3 pipeline, and the bad requests come back as recoverable
// errors, not a dead process. A second daemon run under --algo=Hybrid checks the
// default-algorithm flag routes requests that omit "algorithm". Exits non-zero with a
// message on the first violation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tofu/partition/plan_io.h"
#include "tofu/pipeline/pipeline_plan.h"
#include "tofu/serve/request.h"
#include "tofu/serve/server.h"
#include "tofu/util/json.h"

namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "pland_smoke: FAIL: %s\n", message.c_str());
  std::exit(1);
}

void Check(bool ok, const std::string& message) {
  if (!ok) Fail(message);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: pland_smoke <path-to-tofu-pland>\n");
    return 2;
  }
  const std::string binary = argv[1];

  const std::string mlp_line =
      "{\"id\":1,\"model\":\"mlp\",\"workers\":4,"
      "\"config\":{\"batch\":16,\"layer_sizes\":[64,32,10]}}";
  const std::string mlp_dup_line =
      "{\"id\":2,\"model\":\"mlp\",\"workers\":4,"
      "\"config\":{\"batch\":16,\"layer_sizes\":[64,32,10]}}";
  const std::string rnn_line =
      "{\"id\":3,\"model\":\"rnn\",\"workers\":2,\"algorithm\":\"EqualChop\","
      "\"config\":{\"layers\":1,\"hidden\":32,\"batch\":4,\"timesteps\":2,"
      "\"embed\":16}}";
  const std::string bad_model_line = "{\"id\":4,\"model\":\"vgg\"}";
  const std::string malformed_line = "{\"id\":5,";
  // 2^32 + 4 workers: out of int range, so it must be rejected rather than truncated
  // to a 4-worker plan.
  const std::string workers_overflow_line =
      "{\"id\":7,\"model\":\"mlp\",\"workers\":4294967300}";
  // A 2^32 x 2^32 weight: its byte size does not fit in int64, so the spec must be
  // rejected rather than planned on wrapped sizes.
  const std::string bytes_overflow_line =
      "{\"id\":8,\"model\":\"mlp\",\"workers\":8,"
      "\"config\":{\"layer_sizes\":[4294967296,4294967296]}}";
  // A fractional entry in an integer array: rejected by name, not a daemon abort.
  const std::string fractional_line =
      "{\"id\":9,\"model\":\"mlp\",\"workers\":4,"
      "\"config\":{\"layer_sizes\":[784.5,10]}}";
  // Bandwidths that pass the "> 0" check but overflow bytes / bandwidth to inf: JSON
  // cannot carry the figure, so the request is rejected rather than aborting the render.
  const std::string tiny_levels_line =
      "{\"id\":10,\"model\":\"mlp\",\"workers\":4,\"level_bandwidths\":[1e-320,1e-320]}";
  const std::string tiny_uniform_line =
      "{\"id\":11,\"model\":\"mlp\",\"workers\":4,\"uniform_bandwidth\":1e-320}";
  // A budget no pure plan can meet on this narrow graph (its liveness floor is 192
  // bytes per worker at 32 workers) -- the hybrid search must answer with a
  // multi-stage pipeline plan (tests/test_pipeline.cc pins the stage goldens).
  const std::string hybrid_line =
      "{\"id\":6,\"model\":\"mlp\",\"workers\":32,\"algorithm\":\"Hybrid\","
      "\"memory_budget_bytes\":150,"
      "\"config\":{\"batch\":8,\"layer_sizes\":[4,4,4,4,4,4,4,4]}}";

  const std::string requests = mlp_line + "\n" + mlp_dup_line + "\n" + rnn_line +
                               "\n" + bad_model_line + "\n" + malformed_line + "\n" +
                               hybrid_line + "\n" + workers_overflow_line + "\n" +
                               bytes_overflow_line + "\n" + fractional_line + "\n" +
                               tiny_levels_line + "\n" + tiny_uniform_line + "\n";
  Check(tofu::WriteTextFile("pland_smoke_requests.jsonl", requests),
        "cannot write request file");

  const std::string command = "\"" + binary +
                              "\" --threads=2 --quiet"
                              " < pland_smoke_requests.jsonl"
                              " > pland_smoke_responses.jsonl"
                              " 2> pland_smoke_stderr.txt";
  const int exit_code = std::system(command.c_str());
  Check(exit_code == 0,
        "tofu-pland exited with " + std::to_string(exit_code) + " for: " + command);

  tofu::Result<std::string> responses =
      tofu::ReadTextFile("pland_smoke_responses.jsonl");
  Check(responses.ok(), "cannot read response file");
  const std::vector<std::string> lines = SplitLines(*responses);
  Check(lines.size() == 11,
        "expected 11 response lines, got " + std::to_string(lines.size()));

  int cached_or_coalesced = 0;
  int workers_rejected = 0;
  int fraction_rejected = 0;
  int malformed_rejected = 0;
  int overflow_rejected = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    tofu::Result<tofu::JsonValue> doc = tofu::ParseJson(lines[i]);
    Check(doc.ok(), "response line " + std::to_string(i) + " is not valid JSON: " +
                        doc.status().ToString());
    tofu::Result<std::string> schema = doc->StringAt("schema");
    Check(schema.ok() && *schema == tofu::kServeJsonSchema,
          "response line " + std::to_string(i) + " has wrong schema");
    tofu::Result<bool> ok_field = doc->BoolAt("ok");
    Check(ok_field.ok(), "response line " + std::to_string(i) + " lacks 'ok'");
    tofu::Result<std::int64_t> id = doc->IntAt("id");
    Check(id.ok(), "response line " + std::to_string(i) + " lacks 'id'");

    if (*id == 1 || *id == 2 || *id == 3) {
      // Valid requests: response order matches input order and the embedded plan
      // replays against a freshly built graph of the same spec.
      Check(*ok_field, "request id " + std::to_string(*id) + " unexpectedly failed: " +
                           lines[i]);
      Check(static_cast<std::int64_t>(i) + 1 == *id,
            "responses out of input order at line " + std::to_string(i));
      const tofu::JsonValue* plan_json = doc->Find("plan");
      Check(plan_json != nullptr, "ok response without a plan member");
      tofu::Result<tofu::PartitionPlan> plan =
          tofu::PlanFromJson(tofu::JsonToString(*plan_json));
      Check(plan.ok(), "embedded plan does not parse as tofu.plan.v2: " +
                           plan.status().ToString());

      const std::string& request_line =
          *id == 1 ? mlp_line : (*id == 2 ? mlp_dup_line : rnn_line);
      tofu::Result<tofu::ServeRequest> request =
          tofu::ParseServeRequest(request_line);
      Check(request.ok(), "request line stopped parsing");
      tofu::Result<tofu::ModelGraph> model = tofu::BuildServeModel(*request);
      Check(model.ok(), "model build failed");
      const tofu::Status valid =
          tofu::ValidatePlanForGraph(model->graph, *plan);
      Check(valid.ok(),
            "embedded plan does not validate against its graph: " + valid.ToString());

      tofu::Result<bool> from_cache = doc->BoolAt("from_cache");
      tofu::Result<bool> coalesced = doc->BoolAt("coalesced");
      Check(from_cache.ok() && coalesced.ok(), "ok response lacks cache flags");
      if ((*id == 1 || *id == 2) && (*from_cache || *coalesced)) {
        ++cached_or_coalesced;
      }
    } else if (*id == 6) {
      // The hybrid request: a tofu.plan.v3 document whose pipeline section names at
      // least two stages, each fitting the request's budget, valid against the graph.
      Check(*ok_field, "hybrid request unexpectedly failed: " + lines[i]);
      tofu::Result<std::string> algo = doc->StringAt("algorithm");
      Check(algo.ok() && *algo == "Hybrid", "hybrid response misreports algorithm");
      const tofu::JsonValue* plan_json = doc->Find("plan");
      Check(plan_json != nullptr, "hybrid response without a plan member");
      const std::string plan_text = tofu::JsonToString(*plan_json);
      Check(plan_text.find("tofu.plan.v3") != std::string::npos,
            "hybrid plan is not tagged tofu.plan.v3");
      tofu::Result<tofu::PartitionPlan> plan = tofu::PlanFromJson(plan_text);
      Check(plan.ok(),
            "embedded hybrid plan does not parse: " + plan.status().ToString());
      Check(plan->pipeline != nullptr && plan->pipeline->num_stages >= 2,
            "hybrid plan does not carry a multi-stage pipeline");
      for (const tofu::PipelineStage& stage : plan->pipeline->stages) {
        Check(stage.peak_bytes <= 150, "a pipeline stage exceeds the request budget");
      }
      tofu::Result<tofu::ServeRequest> request =
          tofu::ParseServeRequest(hybrid_line);
      Check(request.ok(), "hybrid request line stopped parsing");
      tofu::Result<tofu::ModelGraph> model = tofu::BuildServeModel(*request);
      Check(model.ok(), "hybrid model build failed");
      const tofu::Status valid = tofu::ValidatePlanForGraph(model->graph, *plan);
      Check(valid.ok(), "hybrid plan does not validate: " + valid.ToString());
    } else if (*id == 4 || *id == 7 || *id == 8 || *id == 9 || *id == 10 || *id == 11) {
      // Rejected requests answer with their own id: the unknown model, the
      // out-of-range worker count, the overflowing tensor, the fractional layer size and
      // the two overflowing bandwidths.
      Check(!*ok_field, "request id " + std::to_string(*id) + " unexpectedly succeeded");
      tofu::Result<std::string> code = doc->StringAt("code");
      Check(code.ok() && *code == "INVALID_ARGUMENT",
            "request id " + std::to_string(*id) +
                " should be INVALID_ARGUMENT, got line: " + lines[i]);
      tofu::Result<std::string> error = doc->StringAt("error");
      if (*id == 7 && error.ok() &&
          error->find("'workers' out of int range") != std::string::npos) {
        ++workers_rejected;
      }
      if (*id == 9 && error.ok() && error->find("'layer_sizes'") != std::string::npos) {
        ++fraction_rejected;
      }
      if ((*id == 10 || *id == 11) && error.ok() &&
          error->find("is not finite") != std::string::npos) {
        ++overflow_rejected;
      }
    } else if (*id == -1) {
      // Only the malformed line has no recoverable id.
      Check(!*ok_field, "malformed line unexpectedly succeeded: " + lines[i]);
      ++malformed_rejected;
    } else {
      Fail("unexpected response id " + std::to_string(*id));
    }
  }
  // The duplicated MLP spec must not pay for a second search: whichever of id 1/2
  // lost the race is a cache hit or a coalesced rider.
  Check(cached_or_coalesced >= 1,
        "duplicate request was answered by a second search");
  Check(workers_rejected == 1, "the out-of-range worker count was not rejected");
  Check(fraction_rejected == 1, "the fractional layer size was not rejected");
  Check(malformed_rejected == 1, "expected exactly one response with id -1");
  Check(overflow_rejected == 2, "the overflowing bandwidths were not both rejected");

  // Second run: --algo=Hybrid must route a request that omits "algorithm" through the
  // hybrid search (same budget-constrained spec, no algorithm field, same pipeline).
  const std::string defaulted_line =
      "{\"id\":1,\"model\":\"mlp\",\"workers\":32,\"memory_budget_bytes\":150,"
      "\"config\":{\"batch\":8,\"layer_sizes\":[4,4,4,4,4,4,4,4]}}";
  Check(tofu::WriteTextFile("pland_smoke_algo_requests.jsonl", defaulted_line + "\n"),
        "cannot write --algo request file");
  const std::string algo_command = "\"" + binary +
                                   "\" --threads=2 --quiet --algo=Hybrid"
                                   " < pland_smoke_algo_requests.jsonl"
                                   " > pland_smoke_algo_responses.jsonl"
                                   " 2>> pland_smoke_stderr.txt";
  Check(std::system(algo_command.c_str()) == 0, "tofu-pland --algo=Hybrid failed");
  tofu::Result<std::string> algo_responses =
      tofu::ReadTextFile("pland_smoke_algo_responses.jsonl");
  Check(algo_responses.ok(), "cannot read --algo response file");
  const std::vector<std::string> algo_lines = SplitLines(*algo_responses);
  Check(algo_lines.size() == 1, "expected 1 response line from the --algo run");
  tofu::Result<tofu::JsonValue> algo_doc = tofu::ParseJson(algo_lines[0]);
  Check(algo_doc.ok(), "--algo response is not valid JSON");
  tofu::Result<bool> algo_ok = algo_doc->BoolAt("ok");
  Check(algo_ok.ok() && *algo_ok, "--algo=Hybrid request failed: " + algo_lines[0]);
  tofu::Result<std::string> algo_name = algo_doc->StringAt("algorithm");
  Check(algo_name.ok() && *algo_name == "Hybrid",
        "--algo=Hybrid did not route the defaulted request to the hybrid search");
  const tofu::JsonValue* algo_plan = algo_doc->Find("plan");
  Check(algo_plan != nullptr &&
            tofu::JsonToString(*algo_plan).find("tofu.plan.v3") != std::string::npos,
        "--algo=Hybrid response does not carry a v3 pipeline plan");

  std::printf("pland_smoke: OK (12 responses validated)\n");
  return 0;
}
