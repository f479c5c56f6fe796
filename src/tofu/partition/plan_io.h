// Serializable partition plans: a JSON round-trip so plans can be saved, cached on disk,
// shipped to another process, and replayed through the simulator (RunPlanThroughput)
// without re-running the search.
//
//   WriteTextFile("plan.json", PlanToJson(plan));
//   ...
//   TOFU_ASSIGN_OR_RETURN(std::string text, ReadTextFile("plan.json"));
//   TOFU_ASSIGN_OR_RETURN(PartitionPlan loaded, PlanFromJson(text));
//   TOFU_RETURN_IF_ERROR(ValidatePlanForGraph(graph, loaded));
//
// Numbers are written with %.17g, so every double (comm bytes, step costs) reloads
// bit-identically -- a saved plan replays with exactly the original totals. The schema is
// documented in docs/api.md ("tofu.plan.v2" through "tofu.plan.v4").
#ifndef TOFU_PARTITION_PLAN_IO_H_
#define TOFU_PARTITION_PLAN_IO_H_

#include <string>

#include "tofu/graph/graph.h"
#include "tofu/partition/plan.h"
#include "tofu/util/status.h"

namespace tofu {

// Schema tag of PURE plans; bump when the plan format changes shape. v2 added the
// memory fields (per-step peak_shard_bytes, plan-level memory_budget_bytes /
// memory_feasible, search_stats.memory_pruned_states).
inline constexpr const char* kPlanJsonSchema = "tofu.plan.v2";
// Hybrid pipeline plans (PartitionPlan::pipeline set): v2 plus a "pipeline" section
// holding the stage decomposition, per-stage timing, and the per-stage inner plans
// (each a nested pure plan object). Written ONLY for hybrid plans -- pure plans keep
// the v2 tag byte-for-byte, so every pre-pipeline digest is unchanged.
inline constexpr const char* kPlanJsonSchemaV3 = "tofu.plan.v3";
// Plans carrying a MemorySchedule (PartitionPlan::memory_schedule set by the repair
// pass): v2 plus a "memory_schedule" section with the per-buffer residency decisions
// and their pricing, and never a "pipeline" section -- pipeline plans are never
// scheduled, and a stage's inner plan is always a pure v2 object. Written ONLY when a
// schedule is attached -- schedule-free plans keep their v2/v3 tags byte-for-byte, so
// every existing digest is unchanged.
inline constexpr const char* kPlanJsonSchemaV4 = "tofu.plan.v4";

// Serializes every PartitionPlan field (steps with per-tensor cuts and per-op
// strategies, costs, topology estimates, search stats).
std::string PlanToJson(const PartitionPlan& plan);

// The path of the first figure PlanToJson would write that is not finite (for example
// "steps[1].comm_seconds" or "pipeline.stages[0].plan.step_seconds[2]"), or "" when
// every figure is finite. JSON has no inf or NaN, so PlanToJson aborts on such a plan;
// Session::Partition rejects one before caching it.
std::string NonFinitePlanField(const PartitionPlan& plan);

// Parses a plan serialized by PlanToJson. Returns kInvalidArgument on malformed JSON,
// an unknown schema tag, or inconsistent step arrays.
Result<PartitionPlan> PlanFromJson(const std::string& json);

// Checks a (possibly reloaded) plan against a concrete graph: array sizes match the
// graph, every cut names a real dimension of its tensor, every step factor is sane, a
// pipeline plan carries no schedule and its stage plans are pure. Returns
// kInvalidArgument describing the first violation.
Status ValidatePlanForGraph(const Graph& graph, const PartitionPlan& plan);

// FNV-1a fingerprint of the normalized plan JSON (search wall time -- the one
// nondeterministic field -- zeroed first): a machine-independent digest of WHAT a
// search found. bench_table1_search emits it, tools/check_perf.py gates it against
// bench/baseline_table1.json, and tests/test_plan_goldens.cc pins the uniform-topology
// plans to their pre-interconnect values with it.
std::string PlanDigest(const PartitionPlan& plan);

}  // namespace tofu

#endif  // TOFU_PARTITION_PLAN_IO_H_
