#include "tofu/partition/plan_io.h"

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "tofu/memory/schedule.h"
#include "tofu/pipeline/pipeline_plan.h"
#include "tofu/util/hash.h"
#include "tofu/util/json.h"
#include "tofu/util/strings.h"

namespace tofu {
namespace {

void WriteIntArray(JsonWriter* w, const std::vector<int>& values) {
  w->BeginArray();
  for (int v : values) {
    w->Int(v);
  }
  w->EndArray();
}

void WriteNumberArray(JsonWriter* w, const std::vector<double>& values) {
  w->BeginArray();
  for (double v : values) {
    w->Number(v);
  }
  w->EndArray();
}

Result<std::vector<int>> ReadIntArray(const JsonValue& obj, const std::string& key) {
  TOFU_ASSIGN_OR_RETURN(const JsonValue* arr, obj.ArrayAt(key));
  std::vector<int> out;
  out.reserve(arr->AsArray().size());
  for (const JsonValue& v : arr->AsArray()) {
    if (v.kind() != JsonValue::Kind::kNumber) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("plan field '%s': non-numeric element", key.c_str()));
    }
    const double n = v.AsNumber();
    // Range check before the cast: casting an out-of-range double is UB.
    if (!(n >= -2147483648.0 && n <= 2147483647.0) ||
        static_cast<double>(static_cast<int>(n)) != n) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("plan field '%s': %g is not an int32", key.c_str(), n));
    }
    out.push_back(static_cast<int>(n));
  }
  return out;
}

Result<std::vector<double>> ReadNumberArray(const JsonValue& obj, const std::string& key) {
  TOFU_ASSIGN_OR_RETURN(const JsonValue* arr, obj.ArrayAt(key));
  std::vector<double> out;
  out.reserve(arr->AsArray().size());
  for (const JsonValue& v : arr->AsArray()) {
    if (v.kind() != JsonValue::Kind::kNumber) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("plan field '%s': non-numeric element", key.c_str()));
    }
    out.push_back(v.AsNumber());
  }
  return out;
}

// Writes one plan as a JSON object. Pure plans keep the v2 tag (byte-identical to the
// pre-pipeline serialization, which is what pins every existing digest); a plan carrying
// a PipelinePlan writes v3 and appends the "pipeline" section, whose per-stage inner
// plans recurse through this same writer (stage plans are pure, so they nest exactly
// one level deep); a plan carrying a MemorySchedule writes v4 and appends the
// "memory_schedule" section (never alongside a pipeline; ValidatePlanForGraph rejects
// the combination).
void WritePlanObject(JsonWriter* wp, const PartitionPlan& plan) {
  JsonWriter& w = *wp;
  const char* schema = plan.memory_schedule != nullptr
                           ? kPlanJsonSchemaV4
                           : (plan.pipeline != nullptr ? kPlanJsonSchemaV3
                                                       : kPlanJsonSchema);
  w.BeginObject();
  w.Key("schema").String(schema);
  w.Key("num_workers").Int(plan.num_workers);
  w.Key("step_factors");
  WriteIntArray(&w, plan.step_factors);
  w.Key("total_comm_bytes").Number(plan.total_comm_bytes);
  w.Key("weighted_step_costs");
  WriteNumberArray(&w, plan.weighted_step_costs);
  w.Key("step_seconds");
  WriteNumberArray(&w, plan.step_seconds);
  w.Key("estimated_comm_seconds").Number(plan.estimated_comm_seconds);
  w.Key("memory_budget_bytes").Int(plan.memory_budget_bytes);
  w.Key("memory_feasible").Bool(plan.memory_feasible);
  w.Key("search_stats").BeginObject();
  w.Key("states_explored").Int(plan.search_stats.states_explored);
  w.Key("max_frontier_states").Int(plan.search_stats.max_frontier_states);
  w.Key("cost_table_entries").Int(plan.search_stats.cost_table_entries);
  w.Key("memory_pruned_states").Int(plan.search_stats.memory_pruned_states);
  w.Key("wall_seconds").Number(plan.search_stats.wall_seconds);
  w.Key("exact").Bool(plan.search_stats.exact);
  w.EndObject();
  w.Key("steps").BeginArray();
  for (const BasicPlan& step : plan.steps) {
    w.BeginObject();
    w.Key("ways").Int(step.ways);
    w.Key("comm_bytes").Number(step.comm_bytes);
    w.Key("comm_seconds").Number(step.comm_seconds);
    w.Key("peak_shard_bytes").Number(step.peak_shard_bytes);
    w.Key("tensor_cut");
    WriteIntArray(&w, step.tensor_cut);
    w.Key("op_strategy");
    WriteIntArray(&w, step.op_strategy);
    w.EndObject();
  }
  w.EndArray();
  if (plan.pipeline != nullptr) {
    const PipelinePlan& pipe = *plan.pipeline;
    w.Key("pipeline").BeginObject();
    w.Key("num_stages").Int(pipe.num_stages);
    w.Key("micro_batches").Int(pipe.micro_batches);
    w.Key("bottleneck_seconds").Number(pipe.bottleneck_seconds);
    w.Key("pipeline_seconds").Number(pipe.pipeline_seconds);
    w.Key("comm_seconds").Number(pipe.comm_seconds);
    w.Key("stages").BeginArray();
    for (const PipelineStage& stage : pipe.stages) {
      w.BeginObject();
      w.Key("first_group").Int(stage.first_group);
      w.Key("last_group").Int(stage.last_group);
      w.Key("num_workers").Int(stage.num_workers);
      w.Key("first_worker").Int(stage.first_worker);
      w.Key("fwd_seconds").Number(stage.fwd_seconds);
      w.Key("bwd_seconds").Number(stage.bwd_seconds);
      w.Key("activation_bytes").Number(stage.activation_bytes);
      w.Key("transfer_fwd_seconds").Number(stage.transfer_fwd_seconds);
      w.Key("transfer_bwd_seconds").Number(stage.transfer_bwd_seconds);
      w.Key("peak_bytes").Int(stage.peak_bytes);
      w.Key("all_resident_bytes").Int(stage.all_resident_bytes);
      w.Key("plan");
      WritePlanObject(&w, stage.plan);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  if (plan.memory_schedule != nullptr) {
    const MemorySchedule& sched = *plan.memory_schedule;
    w.Key("memory_schedule").BeginObject();
    w.Key("budget_bytes").Int(sched.budget_bytes);
    w.Key("baseline_peak_bytes").Int(sched.baseline_peak_bytes);
    w.Key("scheduled_peak_bytes").Int(sched.scheduled_peak_bytes);
    w.Key("swap_bytes").Number(sched.swap_bytes);
    w.Key("swap_seconds").Number(sched.swap_seconds);
    w.Key("recompute_seconds").Number(sched.recompute_seconds);
    w.Key("host_bandwidth").Number(sched.host_bandwidth);
    w.Key("decisions").BeginArray();
    for (const MemoryDecision& d : sched.decisions) {
      w.BeginObject();
      w.Key("tensor").Int(d.tensor);
      w.Key("residency").String(ResidencyName(d.residency));
      w.Key("bytes").Number(d.bytes);
      w.Key("overhead_seconds").Number(d.overhead_seconds);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

std::string PlanToJson(const PartitionPlan& plan) {
  JsonWriter w;
  WritePlanObject(&w, plan);
  return std::move(w).str();
}

namespace {

// The name of the first non-finite figure in `figures`, or nullptr when all are finite.
const char* FirstNonFinite(std::initializer_list<std::pair<const char*, double>> figures) {
  for (const auto& [name, value] : figures) {
    if (!std::isfinite(value)) return name;
  }
  return nullptr;
}

// "name[i]" for the first non-finite element of `values`, or "" when all are finite.
std::string FirstNonFinite(const char* name, const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) return StrFormat("%s[%zu]", name, i);
  }
  return "";
}

}  // namespace

// Covers every Number field WritePlanObject writes; a figure added there belongs here.
std::string NonFinitePlanField(const PartitionPlan& plan) {
  if (const char* name = FirstNonFinite(
          {{"total_comm_bytes", plan.total_comm_bytes},
           {"estimated_comm_seconds", plan.estimated_comm_seconds},
           {"search_stats.wall_seconds", plan.search_stats.wall_seconds}})) {
    return name;
  }
  std::string bad = FirstNonFinite("weighted_step_costs", plan.weighted_step_costs);
  if (bad.empty()) bad = FirstNonFinite("step_seconds", plan.step_seconds);
  if (!bad.empty()) return bad;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const BasicPlan& step = plan.steps[i];
    if (const char* name = FirstNonFinite({{"comm_bytes", step.comm_bytes},
                                           {"comm_seconds", step.comm_seconds},
                                           {"peak_shard_bytes", step.peak_shard_bytes}})) {
      return StrFormat("steps[%zu].%s", i, name);
    }
  }
  if (plan.pipeline != nullptr) {
    const PipelinePlan& pipe = *plan.pipeline;
    if (const char* name = FirstNonFinite({{"bottleneck_seconds", pipe.bottleneck_seconds},
                                           {"pipeline_seconds", pipe.pipeline_seconds},
                                           {"comm_seconds", pipe.comm_seconds}})) {
      return std::string("pipeline.") + name;
    }
    for (size_t i = 0; i < pipe.stages.size(); ++i) {
      const PipelineStage& stage = pipe.stages[i];
      if (const char* name =
              FirstNonFinite({{"fwd_seconds", stage.fwd_seconds},
                              {"bwd_seconds", stage.bwd_seconds},
                              {"activation_bytes", stage.activation_bytes},
                              {"transfer_fwd_seconds", stage.transfer_fwd_seconds},
                              {"transfer_bwd_seconds", stage.transfer_bwd_seconds}})) {
        return StrFormat("pipeline.stages[%zu].%s", i, name);
      }
      const std::string inner = NonFinitePlanField(stage.plan);
      if (!inner.empty()) return StrFormat("pipeline.stages[%zu].plan.", i) + inner;
    }
  }
  if (plan.memory_schedule != nullptr) {
    const MemorySchedule& sched = *plan.memory_schedule;
    if (const char* name = FirstNonFinite({{"swap_bytes", sched.swap_bytes},
                                           {"swap_seconds", sched.swap_seconds},
                                           {"recompute_seconds", sched.recompute_seconds},
                                           {"host_bandwidth", sched.host_bandwidth}})) {
      return std::string("memory_schedule.") + name;
    }
    for (size_t i = 0; i < sched.decisions.size(); ++i) {
      const MemoryDecision& d = sched.decisions[i];
      if (const char* name = FirstNonFinite(
              {{"bytes", d.bytes}, {"overhead_seconds", d.overhead_seconds}})) {
        return StrFormat("memory_schedule.decisions[%zu].%s", i, name);
      }
    }
  }
  return "";
}

namespace {

Result<PartitionPlan> ParsePlanObject(const JsonValue& doc, int depth) {
  TOFU_ASSIGN_OR_RETURN(std::string schema, doc.StringAt("schema"));
  // v2 is a pure plan; v3 means a pipeline section; v4 means a memory_schedule section
  // and no pipeline. Stage plans nest as v2.
  const bool pipelined = schema == kPlanJsonSchemaV3;
  const bool scheduled = schema == kPlanJsonSchemaV4;
  if (!pipelined && !scheduled && schema != kPlanJsonSchema) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("unknown plan schema '%s' (want %s, %s or %s)", schema.c_str(),
                            kPlanJsonSchemaV4, kPlanJsonSchemaV3, kPlanJsonSchema));
  }
  if (depth > 0 && schema != kPlanJsonSchema) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("pipeline stage plans must be pure %s documents, not %s",
                            kPlanJsonSchema, schema.c_str()));
  }
  if (scheduled && doc.Find("pipeline") != nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("a %s document carries no pipeline section (pipeline plans "
                            "are never scheduled)",
                            kPlanJsonSchemaV4));
  }

  PartitionPlan plan;
  TOFU_ASSIGN_OR_RETURN(std::int64_t workers, doc.IntAt("num_workers"));
  if (workers < 1 || workers > (1 << 30)) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("num_workers %lld out of range", static_cast<long long>(workers)));
  }
  plan.num_workers = static_cast<int>(workers);
  TOFU_ASSIGN_OR_RETURN(plan.step_factors, ReadIntArray(doc, "step_factors"));
  TOFU_ASSIGN_OR_RETURN(plan.total_comm_bytes, doc.NumberAt("total_comm_bytes"));
  TOFU_ASSIGN_OR_RETURN(plan.weighted_step_costs, ReadNumberArray(doc, "weighted_step_costs"));
  TOFU_ASSIGN_OR_RETURN(plan.step_seconds, ReadNumberArray(doc, "step_seconds"));
  TOFU_ASSIGN_OR_RETURN(plan.estimated_comm_seconds, doc.NumberAt("estimated_comm_seconds"));
  TOFU_ASSIGN_OR_RETURN(plan.memory_budget_bytes, doc.IntAt("memory_budget_bytes"));
  if (plan.memory_budget_bytes < 0) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("memory_budget_bytes %lld is negative",
                            static_cast<long long>(plan.memory_budget_bytes)));
  }
  TOFU_ASSIGN_OR_RETURN(plan.memory_feasible, doc.BoolAt("memory_feasible"));

  TOFU_ASSIGN_OR_RETURN(const JsonValue* stats, doc.ObjectAt("search_stats"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.states_explored, stats->IntAt("states_explored"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.max_frontier_states,
                        stats->IntAt("max_frontier_states"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.cost_table_entries,
                        stats->IntAt("cost_table_entries"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.memory_pruned_states,
                        stats->IntAt("memory_pruned_states"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.wall_seconds, stats->NumberAt("wall_seconds"));
  TOFU_ASSIGN_OR_RETURN(plan.search_stats.exact, stats->BoolAt("exact"));

  TOFU_ASSIGN_OR_RETURN(const JsonValue* steps, doc.ArrayAt("steps"));
  for (const JsonValue& entry : steps->AsArray()) {
    if (!entry.is_object()) {
      return Status(StatusCode::kInvalidArgument, "plan step is not a JSON object");
    }
    BasicPlan step;
    TOFU_ASSIGN_OR_RETURN(std::int64_t ways, entry.IntAt("ways"));
    if (ways < 2 || ways > (1 << 30)) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step ways %lld out of range", static_cast<long long>(ways)));
    }
    step.ways = static_cast<int>(ways);
    TOFU_ASSIGN_OR_RETURN(step.comm_bytes, entry.NumberAt("comm_bytes"));
    TOFU_ASSIGN_OR_RETURN(step.comm_seconds, entry.NumberAt("comm_seconds"));
    TOFU_ASSIGN_OR_RETURN(step.peak_shard_bytes, entry.NumberAt("peak_shard_bytes"));
    TOFU_ASSIGN_OR_RETURN(step.tensor_cut, ReadIntArray(entry, "tensor_cut"));
    TOFU_ASSIGN_OR_RETURN(step.op_strategy, ReadIntArray(entry, "op_strategy"));
    plan.steps.push_back(std::move(step));
  }

  if (plan.steps.size() != plan.step_factors.size()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan has %zu steps but %zu step_factors", plan.steps.size(),
                            plan.step_factors.size()));
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    if (plan.steps[i].ways != plan.step_factors[i]) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step %zu: ways %d != step_factors[%zu] %d", i,
                              plan.steps[i].ways, i, plan.step_factors[i]));
    }
  }
  if (plan.weighted_step_costs.size() != plan.steps.size()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan has %zu steps but %zu weighted_step_costs",
                            plan.steps.size(), plan.weighted_step_costs.size()));
  }
  if (!plan.step_seconds.empty() && plan.step_seconds.size() != plan.steps.size()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan has %zu steps but %zu step_seconds", plan.steps.size(),
                            plan.step_seconds.size()));
  }

  if (pipelined) {
    TOFU_ASSIGN_OR_RETURN(const JsonValue* pipe_obj, doc.ObjectAt("pipeline"));
    auto pipe = std::make_shared<PipelinePlan>();
    TOFU_ASSIGN_OR_RETURN(std::int64_t num_stages, pipe_obj->IntAt("num_stages"));
    TOFU_ASSIGN_OR_RETURN(std::int64_t micro_batches, pipe_obj->IntAt("micro_batches"));
    if (num_stages < 1 || num_stages > (1 << 20) || micro_batches < 1 ||
        micro_batches > (1 << 20)) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("pipeline num_stages %lld / micro_batches %lld out of range",
                              static_cast<long long>(num_stages),
                              static_cast<long long>(micro_batches)));
    }
    pipe->num_stages = static_cast<int>(num_stages);
    pipe->micro_batches = static_cast<int>(micro_batches);
    TOFU_ASSIGN_OR_RETURN(pipe->bottleneck_seconds,
                          pipe_obj->NumberAt("bottleneck_seconds"));
    TOFU_ASSIGN_OR_RETURN(pipe->pipeline_seconds, pipe_obj->NumberAt("pipeline_seconds"));
    TOFU_ASSIGN_OR_RETURN(pipe->comm_seconds, pipe_obj->NumberAt("comm_seconds"));
    TOFU_ASSIGN_OR_RETURN(const JsonValue* stages, pipe_obj->ArrayAt("stages"));
    for (const JsonValue& entry : stages->AsArray()) {
      if (!entry.is_object()) {
        return Status(StatusCode::kInvalidArgument,
                      "pipeline stage is not a JSON object");
      }
      PipelineStage stage;
      TOFU_ASSIGN_OR_RETURN(std::int64_t first_group, entry.IntAt("first_group"));
      TOFU_ASSIGN_OR_RETURN(std::int64_t last_group, entry.IntAt("last_group"));
      TOFU_ASSIGN_OR_RETURN(std::int64_t stage_workers, entry.IntAt("num_workers"));
      TOFU_ASSIGN_OR_RETURN(std::int64_t first_worker, entry.IntAt("first_worker"));
      if (first_group < 0 || last_group < first_group || stage_workers < 1 ||
          first_worker < 0 || last_group > (1 << 30) || stage_workers > (1 << 30) ||
          first_worker > (1 << 30)) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("pipeline stage range [%lld, %lld] / workers %lld @ %lld "
                                "out of range",
                                static_cast<long long>(first_group),
                                static_cast<long long>(last_group),
                                static_cast<long long>(stage_workers),
                                static_cast<long long>(first_worker)));
      }
      stage.first_group = static_cast<int>(first_group);
      stage.last_group = static_cast<int>(last_group);
      stage.num_workers = static_cast<int>(stage_workers);
      stage.first_worker = static_cast<int>(first_worker);
      TOFU_ASSIGN_OR_RETURN(stage.fwd_seconds, entry.NumberAt("fwd_seconds"));
      TOFU_ASSIGN_OR_RETURN(stage.bwd_seconds, entry.NumberAt("bwd_seconds"));
      TOFU_ASSIGN_OR_RETURN(stage.activation_bytes, entry.NumberAt("activation_bytes"));
      TOFU_ASSIGN_OR_RETURN(stage.transfer_fwd_seconds,
                            entry.NumberAt("transfer_fwd_seconds"));
      TOFU_ASSIGN_OR_RETURN(stage.transfer_bwd_seconds,
                            entry.NumberAt("transfer_bwd_seconds"));
      TOFU_ASSIGN_OR_RETURN(stage.peak_bytes, entry.IntAt("peak_bytes"));
      TOFU_ASSIGN_OR_RETURN(stage.all_resident_bytes, entry.IntAt("all_resident_bytes"));
      TOFU_ASSIGN_OR_RETURN(const JsonValue* inner, entry.ObjectAt("plan"));
      TOFU_ASSIGN_OR_RETURN(stage.plan, ParsePlanObject(*inner, depth + 1));
      pipe->stages.push_back(std::move(stage));
    }
    if (static_cast<int>(pipe->stages.size()) != pipe->num_stages) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("pipeline claims %d stages but carries %zu",
                              pipe->num_stages, pipe->stages.size()));
    }
    plan.pipeline = std::move(pipe);
  }
  if (scheduled) {
    TOFU_ASSIGN_OR_RETURN(const JsonValue* sched_obj, doc.ObjectAt("memory_schedule"));
    auto sched = std::make_shared<MemorySchedule>();
    TOFU_ASSIGN_OR_RETURN(sched->budget_bytes, sched_obj->IntAt("budget_bytes"));
    TOFU_ASSIGN_OR_RETURN(sched->baseline_peak_bytes,
                          sched_obj->IntAt("baseline_peak_bytes"));
    TOFU_ASSIGN_OR_RETURN(sched->scheduled_peak_bytes,
                          sched_obj->IntAt("scheduled_peak_bytes"));
    TOFU_ASSIGN_OR_RETURN(sched->swap_bytes, sched_obj->NumberAt("swap_bytes"));
    TOFU_ASSIGN_OR_RETURN(sched->swap_seconds, sched_obj->NumberAt("swap_seconds"));
    TOFU_ASSIGN_OR_RETURN(sched->recompute_seconds,
                          sched_obj->NumberAt("recompute_seconds"));
    TOFU_ASSIGN_OR_RETURN(sched->host_bandwidth, sched_obj->NumberAt("host_bandwidth"));
    TOFU_ASSIGN_OR_RETURN(const JsonValue* decisions, sched_obj->ArrayAt("decisions"));
    for (const JsonValue& entry : decisions->AsArray()) {
      if (!entry.is_object()) {
        return Status(StatusCode::kInvalidArgument,
                      "memory_schedule decision is not a JSON object");
      }
      MemoryDecision d;
      TOFU_ASSIGN_OR_RETURN(std::int64_t tensor, entry.IntAt("tensor"));
      if (tensor < 0 || tensor > (1 << 30)) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("memory_schedule decision tensor %lld out of range",
                                static_cast<long long>(tensor)));
      }
      d.tensor = static_cast<TensorId>(tensor);
      TOFU_ASSIGN_OR_RETURN(std::string residency, entry.StringAt("residency"));
      if (residency == ResidencyName(Residency::kRecompute)) {
        d.residency = Residency::kRecompute;
      } else if (residency == ResidencyName(Residency::kSwap)) {
        d.residency = Residency::kSwap;
      } else if (residency == ResidencyName(Residency::kResident)) {
        d.residency = Residency::kResident;
      } else {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("unknown residency '%s'", residency.c_str()));
      }
      TOFU_ASSIGN_OR_RETURN(d.bytes, entry.NumberAt("bytes"));
      TOFU_ASSIGN_OR_RETURN(d.overhead_seconds, entry.NumberAt("overhead_seconds"));
      sched->decisions.push_back(d);
    }
    plan.memory_schedule = std::move(sched);
  }
  return plan;
}

}  // namespace

Result<PartitionPlan> PlanFromJson(const std::string& json) {
  TOFU_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  if (!doc.is_object()) {
    return Status(StatusCode::kInvalidArgument, "plan document is not a JSON object");
  }
  return ParsePlanObject(doc, 0);
}

namespace {

// Each op's discovered strategy count, resolved on first use and shared by every step
// and hybrid stage of one ValidatePlanForGraph call, so the registry lookup and the
// semantics fetch run at most once per op rather than once per op per step.
class OpStrategyCounts {
 public:
  static constexpr int kUnregistered = -1;

  explicit OpStrategyCounts(const Graph& graph)
      : graph_(graph), counts_(static_cast<size_t>(graph.num_ops()), kUnresolved) {}

  // The number of strategies TDL discovered for op `o`, or kUnregistered when its type
  // has no registry entry. An op whose semantics the graph already memoized skips the
  // registry lookup, which dominates a plan-cache hit on a graph the search resolved.
  int Get(OpId o) {
    int& count = counts_[static_cast<size_t>(o)];
    if (count == kUnresolved) {
      const OpSemantics* semantics = graph_.ResolvedSemantics(o);
      if (semantics == nullptr && OpRegistry::Get().Has(graph_.op(o).type)) {
        semantics = &graph_.SemanticsOf(graph_.op(o));
      }
      count = semantics != nullptr ? static_cast<int>(semantics->strategies.size())
                                   : kUnregistered;
    }
    return count;
  }

 private:
  static constexpr int kUnresolved = -2;
  const Graph& graph_;
  std::vector<int> counts_;
};

Status ValidatePlan(const Graph& graph, const PartitionPlan& plan,
                    OpStrategyCounts* op_strategies) {
  if (plan.num_workers < 1) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan num_workers %d < 1", plan.num_workers));
  }
  if (plan.memory_schedule != nullptr) {
    for (const MemoryDecision& d : plan.memory_schedule->decisions) {
      if (d.tensor < 0 || d.tensor >= graph.num_tensors()) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("memory_schedule decision names tensor %d but the "
                                "graph has %d tensors",
                                d.tensor, graph.num_tensors()));
      }
    }
  }
  if (plan.pipeline != nullptr) {
    // Hybrid plan: the top level carries no steps and no schedule of its own; the
    // workers are covered by the stages' contiguous, disjoint ranges and each stage's
    // inner plan must itself validate (it spans the whole graph, with off-stage
    // tensors replicated) and be pure.
    const PipelinePlan& pipe = *plan.pipeline;
    if (plan.memory_schedule != nullptr) {
      return Status(StatusCode::kInvalidArgument,
                    "hybrid plan carries a top-level memory_schedule; pipeline plans "
                    "are never scheduled");
    }
    if (!plan.steps.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("hybrid plan carries %zu top-level steps; stages own the "
                              "steps",
                              plan.steps.size()));
    }
    if (pipe.stages.empty() || static_cast<int>(pipe.stages.size()) != pipe.num_stages) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("pipeline claims %d stages but carries %zu",
                              pipe.num_stages, pipe.stages.size()));
    }
    if (pipe.micro_batches < 1) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("pipeline micro_batches %d < 1", pipe.micro_batches));
    }
    int next_worker = 0;
    int next_group = 0;
    for (size_t s = 0; s < pipe.stages.size(); ++s) {
      const PipelineStage& stage = pipe.stages[s];
      if (stage.first_worker != next_worker || stage.num_workers < 1) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("stage %zu workers [%d, %d) break contiguous coverage "
                                "(expected start %d)",
                                s, stage.first_worker,
                                stage.first_worker + stage.num_workers, next_worker));
      }
      next_worker += stage.num_workers;
      if (stage.first_group != next_group || stage.last_group < stage.first_group) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("stage %zu groups [%d, %d] break contiguous coverage "
                                "(expected start %d)",
                                s, stage.first_group, stage.last_group, next_group));
      }
      next_group = stage.last_group + 1;
      if (stage.plan.pipeline != nullptr || stage.plan.memory_schedule != nullptr) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("stage %zu inner plan is not pure (it carries a %s)", s,
                                stage.plan.pipeline != nullptr ? "pipeline"
                                                               : "memory_schedule"));
      }
      if (stage.plan.num_workers != stage.num_workers) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("stage %zu inner plan spans %d workers, stage owns %d",
                                s, stage.plan.num_workers, stage.num_workers));
      }
      Status inner = ValidatePlan(graph, stage.plan, op_strategies);
      if (!inner.ok()) {
        return Status(inner.code(), StrFormat("stage %zu: %s", s,
                                              inner.message().c_str()));
      }
    }
    if (next_worker != plan.num_workers) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("stages cover %d workers, plan claims %d", next_worker,
                              plan.num_workers));
    }
    return Status::Ok();
  }
  if (plan.steps.size() != plan.step_factors.size()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan has %zu steps but %zu step_factors", plan.steps.size(),
                            plan.step_factors.size()));
  }
  // Session and the sim bridge price each step by its weighted cost, so a plan without
  // one per step must not reach them (every builder records it: StepFold::Append).
  if (plan.weighted_step_costs.size() != plan.steps.size()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("plan has %zu steps but %zu weighted_step_costs",
                            plan.steps.size(), plan.weighted_step_costs.size()));
  }
  std::int64_t product = 1;
  for (size_t i = 0; i < plan.step_factors.size(); ++i) {
    if (plan.step_factors[i] < 2) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step_factors[%zu] = %d < 2", i, plan.step_factors[i]));
    }
    product *= plan.step_factors[i];
    // Early exit keeps the accumulation far from int64 overflow (factors are bounded by
    // PlanFromJson at 2^30, so one multiply past this cap is still safe).
    if (product > (std::int64_t{1} << 30)) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step factors multiply past 2^30 by step %zu", i));
    }
  }
  // A plan with no steps is only the trivial single-worker plan; anything claiming more
  // workers must factorize them (a truncated file must not replay as "replicate all").
  if (product != plan.num_workers && !(plan.steps.empty() && plan.num_workers == 1)) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("step factors multiply to %lld, not num_workers %d",
                            static_cast<long long>(product), plan.num_workers));
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const BasicPlan& step = plan.steps[i];
    if (step.tensor_cut.size() != static_cast<size_t>(graph.num_tensors())) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step %zu: tensor_cut has %zu entries for a graph with %d "
                              "tensors",
                              i, step.tensor_cut.size(), graph.num_tensors()));
    }
    if (step.op_strategy.size() != static_cast<size_t>(graph.num_ops())) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("step %zu: op_strategy has %zu entries for a graph with %d "
                              "ops",
                              i, step.op_strategy.size(), graph.num_ops()));
    }
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      const int cut = step.tensor_cut[static_cast<size_t>(t)];
      if (cut == kReplicated) {
        continue;
      }
      if (cut < 0 || cut >= graph.tensor(t).rank()) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("step %zu: tensor %d ('%s', rank %d) cut along invalid "
                                "dimension %d",
                                i, t, graph.tensor(t).name.c_str(), graph.tensor(t).rank(),
                                cut));
      }
    }
    for (OpId o = 0; o < graph.num_ops(); ++o) {
      const int sidx = step.op_strategy[static_cast<size_t>(o)];
      if (sidx == kReplicatedExec) {
        continue;
      }
      const OpNode& op = graph.op(o);
      const int num_strategies = op_strategies->Get(o);
      if (num_strategies == OpStrategyCounts::kUnregistered) {
        return Status(StatusCode::kNotFound,
                      StrFormat("step %zu: op %d type '%s' has no TDL registry entry", i,
                                o, op.type.c_str()));
      }
      // Bound by the op's discovered strategy list: everything downstream indexes it.
      if (sidx < 0 || sidx >= num_strategies) {
        return Status(StatusCode::kInvalidArgument,
                      StrFormat("step %zu: op %d ('%s') strategy index %d outside its %d "
                                "discovered strategies",
                                i, o, op.type.c_str(), sidx, num_strategies));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidatePlanForGraph(const Graph& graph, const PartitionPlan& plan) {
  OpStrategyCounts op_strategies(graph);
  return ValidatePlan(graph, plan, &op_strategies);
}

std::string PlanDigest(const PartitionPlan& plan) {
  PartitionPlan normalized = plan;
  normalized.search_stats.wall_seconds = 0.0;
  const std::string json = PlanToJson(normalized);
  std::uint64_t h = kFnvDigestSeed;
  for (unsigned char c : json) {
    FnvMixByte(&h, c);
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

}  // namespace tofu
