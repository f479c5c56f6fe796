#include "tofu/core/report.h"

#include <map>
#include <sstream>

#include "tofu/memory/schedule.h"
#include "tofu/util/strings.h"

namespace tofu {

std::string PlanSummary(const Graph& /*graph*/, const PartitionPlan& plan) {
  std::ostringstream out;
  out << StrFormat("plan for %d workers, total comm %s\n", plan.num_workers,
                   HumanBytes(plan.total_comm_bytes).c_str());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const BasicPlan& step = plan.steps[i];
    std::map<int, int> cut_histogram;
    for (int cut : step.tensor_cut) {
      ++cut_histogram[cut];
    }
    std::vector<std::string> parts;
    for (const auto& [cut, count] : cut_histogram) {
      parts.push_back(cut == kReplicated ? StrFormat("rep:%d", count)
                                         : StrFormat("d%d:%d", cut, count));
    }
    out << StrFormat("  step %zu: x%d, weighted cost %s, cuts {%s}\n", i, step.ways,
                     HumanBytes(plan.weighted_step_costs[i]).c_str(),
                     Join(parts, " ").c_str());
  }
  if (plan.search_stats.states_explored > 0) {
    out << StrFormat(
        "  search: %lld cost evaluations, peak frontier %lld states, %lld table cells, "
        "%s%s%s\n",
        static_cast<long long>(plan.search_stats.states_explored),
        static_cast<long long>(plan.search_stats.max_frontier_states),
        static_cast<long long>(plan.search_stats.cost_table_entries),
        HumanSeconds(plan.search_stats.wall_seconds).c_str(),
        plan.search_stats.memory_pruned_states > 0
            ? StrFormat(", %lld memory-pruned states",
                        static_cast<long long>(
                            plan.search_stats.memory_pruned_states))
                  .c_str()
            : "",
        plan.search_stats.exact ? "" : " (over the state cap, approximate)");
  }
  if (!plan.steps.empty() && plan.steps.back().peak_shard_bytes > 0.0) {
    out << StrFormat(
        "  memory: %s resident per worker (all shards)%s%s\n",
        HumanBytes(plan.steps.back().peak_shard_bytes).c_str(),
        plan.memory_budget_bytes > 0
            ? StrFormat(", budget %s",
                        HumanBytes(static_cast<double>(plan.memory_budget_bytes))
                            .c_str())
                  .c_str()
            : "",
        // Not "infeasible" outright: the session's verdict uses the liveness-aware
        // peak, which can accept a plan the search's all-resident model could not.
        plan.memory_feasible ? "" : " (over budget in the search's all-resident model)");
  }
  if (plan.memory_schedule != nullptr && !plan.memory_schedule->decisions.empty()) {
    const MemorySchedule& schedule = *plan.memory_schedule;
    int swapped = 0, recomputed = 0;
    for (const MemoryDecision& d : schedule.decisions) {
      if (d.residency == Residency::kSwap) ++swapped;
      if (d.residency == Residency::kRecompute) ++recomputed;
    }
    out << StrFormat(
        "  schedule: %d swapped + %d recomputed buffers, peak %s -> %s, overhead %s\n",
        swapped, recomputed, HumanBytes(static_cast<double>(schedule.baseline_peak_bytes)).c_str(),
        HumanBytes(static_cast<double>(schedule.scheduled_peak_bytes)).c_str(),
        HumanSeconds(schedule.AnalyticOverheadSeconds()).c_str());
  }
  return out.str();
}

std::string TilingReport(const Graph& graph, const PartitionPlan& plan) {
  // Unique (operator, weight tiling, activation tiling) signatures in first-appearance
  // order, with repetition counts -- Figure 11's "xN" notation for repeated residual
  // blocks.
  std::vector<std::pair<std::string, int>> lines;
  std::map<std::string, size_t> index;
  for (const OpNode& op : graph.ops()) {
    if (op.is_backward || (op.type != "conv2d" && op.type != "matmul")) {
      continue;
    }
    const TensorNode& data = graph.tensor(op.inputs[0]);
    const TensorNode& weight = graph.tensor(op.inputs[1]);
    std::string line = StrFormat(
        "  %-8s weight %-18s [%-12s]   activation %-20s [%-12s]", op.type.c_str(),
        ShapeToString(weight.shape).c_str(), plan.DescribeTiling(graph, weight.id).c_str(),
        ShapeToString(data.shape).c_str(), plan.DescribeTiling(graph, data.id).c_str());
    auto it = index.find(line);
    if (it == index.end()) {
      index.emplace(line, lines.size());
      lines.push_back({std::move(line), 1});
    } else {
      ++lines[it->second].second;
    }
  }
  std::ostringstream out;
  for (const auto& [line, count] : lines) {
    out << line;
    if (count > 1) {
      out << StrFormat("   x%d", count);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace tofu
