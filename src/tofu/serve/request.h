// The tofu-pland wire format, request side: one JSON object per line.
//
//   {"id": 7, "model": "mlp", "algorithm": "Tofu", "workers": 8,
//    "memory_budget_bytes": 1073741824, "level_bandwidths": [1e10, 2.1e10],
//    "config": {"batch": 64, "layer_sizes": [784, 256, 10]}}
//
// `model` is required and names a builder from models/ ("mlp", "rnn", "wresnet",
// "transformer"); everything else is optional and defaults to the builder's and
// DeviceTopology's defaults. `config` carries the builder's knobs under the same names
// as the config structs; unknown keys are rejected so a typo cannot silently request
// the default model. The full schema is documented in docs/serving.md.
//
// Requests are specs, not graphs: two requests with identical specs build structurally
// identical graphs, hence equal GraphSignatures, hence one shared plan-cache entry --
// which is what makes a spec-addressed serving cache work at all.
#ifndef TOFU_SERVE_REQUEST_H_
#define TOFU_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/models/model.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/util/status.h"

namespace tofu {

// Current request/response schema tag (responses carry it; requests may omit it).
inline constexpr const char* kServeJsonSchema = "tofu.serve.v1";

struct ServeRequest {
  std::int64_t id = 0;
  std::string model;  // "mlp" | "rnn" | "wresnet" | "transformer"
  PartitionAlgorithm algorithm = PartitionAlgorithm::kTofu;
  // Workers, per-level bandwidths, and device memory -- the session routing key
  // (the service keeps one thread-safe Session per distinct topology).
  DeviceTopology topology;
  std::int64_t memory_budget_bytes = 0;
  // What the search may do when no all-resident configuration fits the budget
  // (memory/repair.h): "auto" (swap or recompute, whichever is cheaper per buffer),
  // "swap", "recompute", or "none" (fail with kResourceExhausted, the pre-repair
  // behavior). Wire field "memory_policy"; tofu-pland --memory-policy sets the default.
  MemoryPolicy memory_policy = MemoryPolicy::kAuto;
  // Exactly one of these is consulted, selected by `model`.
  MlpConfig mlp;
  RnnConfig rnn;
  WResNetConfig wresnet;
  TransformerConfig transformer;
};

// Names accepted in the "model" field, for error messages and drivers.
const std::vector<std::string>& KnownServeModels();

// Parses one request line. kInvalidArgument on malformed JSON, an unknown model,
// algorithm, or memory-policy name, an unknown config key, a wrong-kind field, or a
// negative memory_budget_bytes / memory_bytes_per_worker. A
// request that omits the "algorithm" / "memory_policy" field gets `default_algorithm`
// / `default_policy` (tofu-pland --algo=NAME and --memory-policy=NAME route through
// these; an explicit field always wins).
Result<ServeRequest> ParseServeRequest(
    const std::string& line,
    PartitionAlgorithm default_algorithm = PartitionAlgorithm::kTofu,
    MemoryPolicy default_policy = MemoryPolicy::kAuto);

// Builds the full training graph the request's spec describes. The build aborts on
// structurally impossible configs (e.g. heads not dividing d_model), so callers get
// cheap spec validation here too: kInvalidArgument for empty/unknown model names,
// configs the builders reject by contract, and graphs whose tensor byte sizes (each, or
// all together) do not fit in int64 -- the message names the first such tensor.
Result<ModelGraph> BuildServeModel(const ServeRequest& request);

}  // namespace tofu

#endif  // TOFU_SERVE_REQUEST_H_
