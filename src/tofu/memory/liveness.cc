#include "tofu/memory/liveness.h"

#include <algorithm>

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

LivenessAnalysis AnalyzeLiveness(const Graph& graph, const PartitionPlan& plan) {
  const int num_tensors = graph.num_tensors();
  LivenessAnalysis live;
  live.num_ops = graph.num_ops();
  live.buffer = AliasRoots(graph);

  // Per buffer: shard bytes (aliases share storage; take the max member for safety),
  // allocation time (-1 = resident model state, a producer-less root), and the last op
  // that reads any alias of it (num_ops = lives to the end of the iteration).
  live.buf_bytes.assign(static_cast<size_t>(num_tensors), 0);
  live.alloc_at.assign(static_cast<size_t>(num_tensors), -1);
  live.free_at.assign(static_cast<size_t>(num_tensors), -1);
  for (TensorId t = 0; t < num_tensors; ++t) {
    const TensorNode& node = graph.tensor(t);
    const TensorId b = live.buffer[static_cast<size_t>(t)];
    live.buf_bytes[static_cast<size_t>(b)] =
        std::max(live.buf_bytes[static_cast<size_t>(b)], plan.ShardBytes(graph, t));
    if (t == b) {
      live.alloc_at[static_cast<size_t>(b)] =
          node.producer == kNoOp ? -1 : node.producer;
    }
    const int last_use = node.consumers.empty()
                             ? (node.producer == kNoOp ? -1 : live.num_ops)
                             : *std::max_element(node.consumers.begin(),
                                                 node.consumers.end());
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

}  // namespace tofu
