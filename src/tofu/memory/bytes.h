// Shard-byte accounting shared by every memory consumer: the per-step DP tables
// (partition/dp.cc), the flat joint search (partition/flat_dp.cc), the lightest-cuts
// fallback (partition/recursive.cc), and the schedule/repair machinery in this module.
// One rounding rule lives here -- ceil division along the cut dimension, whole
// otherwise, the same rounding StepContext::ApplyBasicPlan uses -- so per-step figures
// compose exactly with the shapes the next step sees.
#ifndef TOFU_MEMORY_BYTES_H_
#define TOFU_MEMORY_BYTES_H_

#include <cstdint>
#include <vector>

#include "tofu/graph/graph.h"

namespace tofu {

// Bytes one worker group stores for a tensor of (current-step) `shape` under one
// storage cut at split factor `ways`: ceil-divided along the cut dimension, whole
// otherwise. `cut` may be kReplicated (-1), meaning no dimension is divided.
double ShardBytesForCut(const Shape& shape, int elem_size, int cut, int ways);

// A slot's resident bytes under one shared cut: all members of a coarse slot are cut
// along the same dimension, so the slot's contribution to a step's per-group residency
// is the sum of its members' shards. `shape_at(t)` supplies the tensor's current-step
// shape (StepContext::shape, or a plain shapes vector).
template <typename ShapeAt>
double SlotShardBytesForCut(const Graph& graph, const std::vector<TensorId>& members,
                            int cut, int ways, const ShapeAt& shape_at) {
  double bytes = 0.0;
  for (TensorId t : members) {
    bytes += ShardBytesForCut(shape_at(t), graph.tensor(t).elem_size, cut, ways);
  }
  return bytes;
}

// Per-group resident bytes of one step's full cut assignment: every tensor's shard at
// this step's granularity, summed. The last step's figure is the per-worker
// all-resident bound the memory-constrained search enforces.
template <typename ShapeAt>
double StepResidentBytes(const Graph& graph, const std::vector<int>& tensor_cut,
                         int ways, const ShapeAt& shape_at) {
  double bytes = 0.0;
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    bytes += ShardBytesForCut(shape_at(t), graph.tensor(t).elem_size,
                              tensor_cut[static_cast<size_t>(t)], ways);
  }
  return bytes;
}

}  // namespace tofu

#endif  // TOFU_MEMORY_BYTES_H_
