#include "tofu/memory/liveness.h"

#include <algorithm>

#include "tofu/memory/schedule.h"
#include "tofu/pipeline/pipeline_plan.h"
#include "tofu/util/logging.h"

namespace tofu {

std::vector<TensorId> AliasRoots(const Graph& graph) {
  // AddOp appends and its inputs must already exist, so inputs resolve before outputs.
  std::vector<TensorId> root(static_cast<size_t>(graph.num_tensors()));
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    root[static_cast<size_t>(t)] = t;
  }
  for (const OpNode& op : graph.ops()) {
    if (op.inplace_input >= 0 &&
        op.inplace_input < static_cast<int>(op.inputs.size())) {
      root[static_cast<size_t>(op.output)] =
          root[static_cast<size_t>(op.inputs[static_cast<size_t>(op.inplace_input)])];
    }
  }
  return root;
}

LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan,
                                 const std::vector<char>& op_in_stage) {
  const int num_tensors = graph.num_tensors();
  const bool whole_graph = op_in_stage.empty();
  TOFU_CHECK(whole_graph || op_in_stage.size() == static_cast<size_t>(graph.num_ops()));
  auto in_stage = [&](OpId o) {
    return whole_graph || op_in_stage[static_cast<size_t>(o)] != 0;
  };
  LivenessAnalysis live;
  live.num_ops = graph.num_ops();
  live.buffer = AliasRoots(graph);

  // Per buffer: shard bytes (aliases share storage; take the max member for safety),
  // allocation time (-1 = resident: model state, or an incoming boundary activation,
  // which arrives before the stage runs and is pinned until its gradient leaves), and
  // the last in-stage op that reads any alias of it (num_ops = lives to the end).
  live.buf_bytes.assign(static_cast<size_t>(num_tensors), 0);
  live.alloc_at.assign(static_cast<size_t>(num_tensors), -1);
  live.free_at.assign(static_cast<size_t>(num_tensors), -1);
  for (TensorId t = 0; t < num_tensors; ++t) {
    const TensorNode& node = graph.tensor(t);
    const TensorId b = live.buffer[static_cast<size_t>(t)];
    const bool produced_here = node.producer != kNoOp && in_stage(node.producer);
    bool touches_stage = whole_graph || produced_here;
    int last_use = -1;
    for (OpId c : node.consumers) {
      if (in_stage(c)) {
        touches_stage = true;
        last_use = std::max(last_use, static_cast<int>(c));
      }
    }
    if (!touches_stage) {
      continue;
    }
    live.buf_bytes[static_cast<size_t>(b)] =
        std::max(live.buf_bytes[static_cast<size_t>(b)], plan.ShardBytes(graph, t));
    if (t == b) {
      live.alloc_at[static_cast<size_t>(b)] = produced_here ? node.producer : -1;
    }
    if (last_use < 0 && produced_here) {
      last_use = live.num_ops;  // nobody here reads it: pinned to the end (or hand-off)
    }
    live.free_at[static_cast<size_t>(b)] =
        std::max(live.free_at[static_cast<size_t>(b)], last_use);
  }
  return live;
}

std::int64_t AllResidentShardBytes(const Graph& graph, const PartitionPlan& plan) {
  std::int64_t total = 0;
  for (const TensorNode& t : graph.tensors()) {
    total += plan.ShardBytes(graph, t.id);
  }
  return total;
}

std::int64_t SweepPeakBytes(const LivenessAnalysis& live,
                            const std::vector<std::int64_t>& transient) {
  const int num_tensors = static_cast<int>(live.buffer.size());
  const int num_ops = live.num_ops;

  std::vector<std::vector<TensorId>> alloc_list(static_cast<size_t>(num_ops));
  std::vector<std::vector<TensorId>> free_list(static_cast<size_t>(num_ops));
  std::int64_t resident = 0;
  for (TensorId b = 0; b < num_tensors; ++b) {
    if (!live.IsRoot(b)) {
      continue;  // alias, accounted under its root
    }
    if (live.IsModelState(b)) {
      resident += live.buf_bytes[static_cast<size_t>(b)];  // never freed
      continue;
    }
    alloc_list[static_cast<size_t>(live.alloc_at[static_cast<size_t>(b)])].push_back(b);
    if (live.free_at[static_cast<size_t>(b)] < num_ops) {
      free_list[static_cast<size_t>(live.free_at[static_cast<size_t>(b)])].push_back(b);
    }
  }

  std::int64_t current = resident;
  std::int64_t peak = current;
  for (OpId k = 0; k < num_ops; ++k) {
    for (TensorId b : alloc_list[static_cast<size_t>(k)]) {
      current += live.buf_bytes[static_cast<size_t>(b)];
    }
    const std::int64_t extra = transient.empty() ? 0 : transient[static_cast<size_t>(k)];
    peak = std::max(peak, current + extra);
    for (TensorId b : free_list[static_cast<size_t>(k)]) {
      current -= live.buf_bytes[static_cast<size_t>(b)];
    }
  }
  return peak;
}

std::int64_t LivenessPeakShardBytes(const Graph& graph, const PartitionPlan& plan) {
  return SweepPeakBytes(AnalyzeLiveness(graph, plan));
}

std::int64_t PlanPeakShardBytes(const Graph& graph, const PartitionPlan& plan,
                                const std::vector<char>& op_in_stage) {
  if (plan.pipeline != nullptr) {
    std::int64_t peak = 0;
    for (const PipelineStage& stage : plan.pipeline->stages) {
      peak = std::max(peak, stage.peak_bytes);
    }
    return peak;
  }
  if (plan.memory_schedule != nullptr) {
    return plan.memory_schedule->scheduled_peak_bytes;
  }
  return SweepPeakBytes(AnalyzeLiveness(graph, plan, op_in_stage));
}

}  // namespace tofu
