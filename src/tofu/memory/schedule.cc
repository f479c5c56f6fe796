#include "tofu/memory/schedule.h"

#include <algorithm>

namespace tofu {

const char* ResidencyName(Residency residency) {
  switch (residency) {
    case Residency::kResident:
      return "resident";
    case Residency::kRecompute:
      return "recompute";
    case Residency::kSwap:
      return "swap";
  }
  return "?";
}

std::int64_t ScheduledPeakShardBytes(const Graph& graph, const PartitionPlan& plan,
                                     const MemorySchedule& schedule) {
  LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  const int num_tensors = graph.num_tensors();

  std::vector<bool> offloaded(static_cast<size_t>(num_tensors), false);
  for (const MemoryDecision& d : schedule.decisions) {
    if (d.residency != Residency::kResident && d.tensor >= 0 &&
        d.tensor < num_tensors) {
      offloaded[static_cast<size_t>(d.tensor)] = true;
    }
  }

  // Resident buffers keep their liveness intervals; offloaded buffers are charged
  // transiently at each op that touches the buffer (its allocating producer and every
  // consumer of any alias in the chain), since between touches they live on the host
  // (kSwap) or not at all (kRecompute). One pass over ops collects the touch sets: op k
  // touches the roots of its inputs and of its output (an in-place output's root is
  // already among its inputs', a fresh output's root is allocated by k).
  std::vector<std::int64_t> transient(static_cast<size_t>(live.num_ops), 0);
  std::vector<TensorId> touched;
  for (const OpNode& op : graph.ops()) {
    touched.clear();
    for (TensorId in : op.inputs) {
      touched.push_back(live.buffer[static_cast<size_t>(in)]);
    }
    touched.push_back(live.buffer[static_cast<size_t>(op.output)]);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (TensorId b : touched) {
      if (offloaded[static_cast<size_t>(b)]) {
        transient[static_cast<size_t>(op.id)] += live.buf_bytes[static_cast<size_t>(b)];
      }
    }
  }
  for (TensorId b = 0; b < num_tensors; ++b) {
    if (offloaded[static_cast<size_t>(b)]) {
      live.buf_bytes[static_cast<size_t>(b)] = 0;  // charged only through `transient`
    }
  }
  return SweepPeakBytes(live, transient);
}

}  // namespace tofu
