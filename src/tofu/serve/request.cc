#include "tofu/serve/request.h"

#include <climits>
#include <cstdint>
#include <limits>
#include <utility>

#include "tofu/util/json.h"

namespace tofu {
namespace {

// Reads an optional integral field into *out, leaving it untouched when absent.
Status ReadInt(const JsonValue& object, const std::string& key, std::int64_t* out) {
  if (object.Find(key) == nullptr) return Status::Ok();
  TOFU_ASSIGN_OR_RETURN(*out, object.IntAt(key));
  return Status::Ok();
}

Status ReadInt(const JsonValue& object, const std::string& key, int* out) {
  std::int64_t wide = *out;
  TOFU_RETURN_IF_ERROR(ReadInt(object, key, &wide));
  if (wide < INT_MIN || wide > INT_MAX) {
    return Status(StatusCode::kInvalidArgument,
                  "field '" + key + "' out of int range: " + std::to_string(wide));
  }
  *out = static_cast<int>(wide);
  return Status::Ok();
}

Status ReadNumber(const JsonValue& object, const std::string& key, double* out) {
  if (object.Find(key) == nullptr) return Status::Ok();
  TOFU_ASSIGN_OR_RETURN(*out, object.NumberAt(key));
  return Status::Ok();
}

Status ReadBool(const JsonValue& object, const std::string& key, bool* out) {
  if (object.Find(key) == nullptr) return Status::Ok();
  TOFU_ASSIGN_OR_RETURN(*out, object.BoolAt(key));
  return Status::Ok();
}

Status ReadIntArray(const JsonValue& object, const std::string& key,
                    std::vector<std::int64_t>* out) {
  if (object.Find(key) == nullptr) return Status::Ok();
  TOFU_ASSIGN_OR_RETURN(const JsonValue* array, object.ArrayAt(key));
  std::vector<std::int64_t> values;
  values.reserve(array->AsArray().size());
  for (const JsonValue& element : array->AsArray()) {
    std::int64_t value = 0;
    if (element.kind() != JsonValue::Kind::kNumber ||
        !IsExactInt64(element.AsNumber(), &value)) {
      return Status(StatusCode::kInvalidArgument,
                    "field '" + key + "' must be an array of integers");
    }
    values.push_back(value);
  }
  *out = std::move(values);
  return Status::Ok();
}

Status ReadNumberArray(const JsonValue& object, const std::string& key,
                       std::vector<double>* out) {
  if (object.Find(key) == nullptr) return Status::Ok();
  TOFU_ASSIGN_OR_RETURN(const JsonValue* array, object.ArrayAt(key));
  std::vector<double> values;
  values.reserve(array->AsArray().size());
  for (const JsonValue& element : array->AsArray()) {
    if (element.kind() != JsonValue::Kind::kNumber) {
      return Status(StatusCode::kInvalidArgument,
                    "field '" + key + "' must be an array of numbers");
    }
    values.push_back(element.AsNumber());
  }
  *out = std::move(values);
  return Status::Ok();
}

Status RejectUnknownKeys(const JsonValue& object,
                         const std::vector<std::string>& known, const char* where) {
  for (const auto& [key, value] : object.AsObject()) {
    bool found = false;
    for (const std::string& name : known) {
      if (key == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("unknown ") + where + " key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseConfig(const JsonValue& config, ServeRequest* request) {
  if (request->model == "mlp") {
    TOFU_RETURN_IF_ERROR(RejectUnknownKeys(
        config, {"batch", "layer_sizes", "with_bias"}, "mlp config"));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "batch", &request->mlp.batch));
    TOFU_RETURN_IF_ERROR(ReadIntArray(config, "layer_sizes", &request->mlp.layer_sizes));
    TOFU_RETURN_IF_ERROR(ReadBool(config, "with_bias", &request->mlp.with_bias));
    return Status::Ok();
  }
  if (request->model == "rnn") {
    TOFU_RETURN_IF_ERROR(RejectUnknownKeys(
        config, {"layers", "hidden", "batch", "timesteps", "embed"}, "rnn config"));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "layers", &request->rnn.layers));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "hidden", &request->rnn.hidden));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "batch", &request->rnn.batch));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "timesteps", &request->rnn.timesteps));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "embed", &request->rnn.embed));
    return Status::Ok();
  }
  if (request->model == "wresnet") {
    TOFU_RETURN_IF_ERROR(RejectUnknownKeys(
        config, {"layers", "width", "batch", "image", "classes"}, "wresnet config"));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "layers", &request->wresnet.layers));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "width", &request->wresnet.width));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "batch", &request->wresnet.batch));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "image", &request->wresnet.image));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "classes", &request->wresnet.classes));
    return Status::Ok();
  }
  if (request->model == "transformer") {
    TOFU_RETURN_IF_ERROR(RejectUnknownKeys(
        config,
        {"batch", "seq_len", "d_model", "d_ff", "heads", "layers", "num_classes"},
        "transformer config"));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "batch", &request->transformer.batch));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "seq_len", &request->transformer.seq_len));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "d_model", &request->transformer.d_model));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "d_ff", &request->transformer.d_ff));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "heads", &request->transformer.heads));
    TOFU_RETURN_IF_ERROR(ReadInt(config, "layers", &request->transformer.layers));
    TOFU_RETURN_IF_ERROR(
        ReadInt(config, "num_classes", &request->transformer.num_classes));
    return Status::Ok();
  }
  return Status(StatusCode::kInvalidArgument, "unknown model '" + request->model + "'");
}

Status RequirePositive(std::int64_t value, const char* name) {
  if (value <= 0) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("config field '") + name +
                      "' must be positive, got " + std::to_string(value));
  }
  return Status::Ok();
}

// Every byte figure downstream (shards, liveness peaks, comm) derives from
// TensorNode::bytes() and sums of it, so a spec is rejected when any tensor's byte size,
// or the running total over all tensors, does not fit in int64. One pass over the
// tensors, checked before each multiply and add so nothing overflows on the way; it
// allocates only to name the offending tensor.
Status CheckTensorBytesFit(const Graph& graph) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto out_of_range = [](const TensorNode& t, const char* what) {
    return Status(StatusCode::kInvalidArgument,
                  "tensor '" + t.name + "' of shape " + ShapeToString(t.shape) + " " +
                      what + " beyond the int64 range");
  };
  std::int64_t total = 0;
  for (const TensorNode& t : graph.tensors()) {
    std::int64_t bytes = t.elem_size;
    for (std::int64_t d : t.shape) {
      if (d < 0 || (d > 0 && bytes > kMax / d)) {
        return out_of_range(t, "has a byte size");
      }
      bytes *= d;
    }
    if (bytes > kMax - total) {
      return out_of_range(t, "brings the graph's total bytes");
    }
    total += bytes;
  }
  return Status::Ok();
}

Result<ModelGraph> BuildSpecModel(const ServeRequest& request) {
  // Pre-validate everything the builders TOFU_CHECK on, so a malformed request comes
  // back as a Status instead of aborting the server.
  if (request.model == "mlp") {
    const MlpConfig& c = request.mlp;
    TOFU_RETURN_IF_ERROR(RequirePositive(c.batch, "batch"));
    if (c.layer_sizes.size() < 2) {
      return Status(StatusCode::kInvalidArgument,
                    "mlp layer_sizes needs at least input and output widths");
    }
    for (std::int64_t width : c.layer_sizes) {
      TOFU_RETURN_IF_ERROR(RequirePositive(width, "layer_sizes[i]"));
    }
    return BuildMlp(c);
  }
  if (request.model == "rnn") {
    const RnnConfig& c = request.rnn;
    TOFU_RETURN_IF_ERROR(RequirePositive(c.layers, "layers"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.hidden, "hidden"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.batch, "batch"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.timesteps, "timesteps"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.embed, "embed"));
    return BuildRnn(c);
  }
  if (request.model == "wresnet") {
    const WResNetConfig& c = request.wresnet;
    if (c.layers != 50 && c.layers != 101 && c.layers != 152) {
      return Status(StatusCode::kInvalidArgument,
                    "wresnet layers must be 50, 101 or 152, got " +
                        std::to_string(c.layers));
    }
    TOFU_RETURN_IF_ERROR(RequirePositive(c.width, "width"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.batch, "batch"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.image, "image"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.classes, "classes"));
    return BuildWResNet(c);
  }
  if (request.model == "transformer") {
    const TransformerConfig& c = request.transformer;
    TOFU_RETURN_IF_ERROR(RequirePositive(c.batch, "batch"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.seq_len, "seq_len"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.d_model, "d_model"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.d_ff, "d_ff"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.heads, "heads"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.layers, "layers"));
    TOFU_RETURN_IF_ERROR(RequirePositive(c.num_classes, "num_classes"));
    if (c.d_model % c.heads != 0) {
      return Status(StatusCode::kInvalidArgument,
                    "transformer heads must divide d_model");
    }
    return BuildTransformer(c);
  }
  return Status(StatusCode::kInvalidArgument, "unknown model '" + request.model + "'");
}

}  // namespace

const std::vector<std::string>& KnownServeModels() {
  static const std::vector<std::string>* models =
      new std::vector<std::string>{"mlp", "rnn", "wresnet", "transformer"};
  return *models;
}

Result<ServeRequest> ParseServeRequest(const std::string& line,
                                       PartitionAlgorithm default_algorithm,
                                       MemoryPolicy default_policy) {
  TOFU_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status(StatusCode::kInvalidArgument, "request line is not a JSON object");
  }
  TOFU_RETURN_IF_ERROR(RejectUnknownKeys(
      doc,
      {"schema", "id", "model", "algorithm", "workers", "memory_budget_bytes",
       "memory_bytes_per_worker", "memory_policy", "uniform_bandwidth",
       "level_bandwidths", "config"},
      "request"));
  if (const JsonValue* schema = doc.Find("schema")) {
    if (schema->kind() != JsonValue::Kind::kString ||
        schema->AsString() != kServeJsonSchema) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("unsupported request schema (want \"") +
                        kServeJsonSchema + "\")");
    }
  }

  ServeRequest request;
  request.algorithm = default_algorithm;
  TOFU_RETURN_IF_ERROR(ReadInt(doc, "id", &request.id));
  TOFU_ASSIGN_OR_RETURN(request.model, doc.StringAt("model"));
  if (const JsonValue* algo = doc.Find("algorithm")) {
    if (algo->kind() != JsonValue::Kind::kString) {
      return Status(StatusCode::kInvalidArgument, "field 'algorithm' must be a string");
    }
    TOFU_ASSIGN_OR_RETURN(request.algorithm, AlgorithmFromName(algo->AsString()));
  }
  request.memory_policy = default_policy;
  if (const JsonValue* policy = doc.Find("memory_policy")) {
    if (policy->kind() != JsonValue::Kind::kString) {
      return Status(StatusCode::kInvalidArgument,
                    "field 'memory_policy' must be a string");
    }
    TOFU_ASSIGN_OR_RETURN(request.memory_policy,
                          MemoryPolicyFromName(policy->AsString()));
  }

  TOFU_RETURN_IF_ERROR(ReadInt(doc, "workers", &request.topology.num_workers));
  if (request.topology.num_workers < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "field 'workers' must be >= 1, got " +
                      std::to_string(request.topology.num_workers));
  }
  TOFU_RETURN_IF_ERROR(
      ReadNumber(doc, "uniform_bandwidth", &request.topology.uniform_bandwidth));
  TOFU_RETURN_IF_ERROR(
      ReadNumberArray(doc, "level_bandwidths", &request.topology.level_bandwidths));
  TOFU_RETURN_IF_ERROR(ReadInt(doc, "memory_bytes_per_worker",
                               &request.topology.memory_bytes_per_worker));
  if (request.topology.memory_bytes_per_worker < 0) {
    return Status(StatusCode::kInvalidArgument,
                  "field 'memory_bytes_per_worker' must be >= 0");
  }
  TOFU_RETURN_IF_ERROR(
      ReadInt(doc, "memory_budget_bytes", &request.memory_budget_bytes));
  if (request.memory_budget_bytes < 0) {
    return Status(StatusCode::kInvalidArgument,
                  "field 'memory_budget_bytes' must be >= 0");
  }

  if (const JsonValue* config = doc.Find("config")) {
    if (!config->is_object()) {
      return Status(StatusCode::kInvalidArgument, "field 'config' must be an object");
    }
    TOFU_RETURN_IF_ERROR(ParseConfig(*config, &request));
  } else {
    // Still validates the model name even without overrides.
    bool known = false;
    for (const std::string& name : KnownServeModels()) known |= (name == request.model);
    if (!known) {
      return Status(StatusCode::kInvalidArgument,
                    "unknown model '" + request.model + "'");
    }
  }
  return request;
}

Result<ModelGraph> BuildServeModel(const ServeRequest& request) {
  Result<ModelGraph> model = BuildSpecModel(request);
  if (model.ok()) {
    TOFU_RETURN_IF_ERROR(CheckTensorBytesFit(model->graph));
  }
  return model;
}

}  // namespace tofu
