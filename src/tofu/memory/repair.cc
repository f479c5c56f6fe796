#include "tofu/memory/repair.h"

#include <algorithm>
#include <vector>

#include "tofu/sim/lowering.h"
#include "tofu/util/strings.h"

namespace tofu {

const char* MemoryPolicyName(MemoryPolicy policy) {
  switch (policy) {
    case MemoryPolicy::kAuto:
      return "auto";
    case MemoryPolicy::kNone:
      return "none";
    case MemoryPolicy::kSwapOnly:
      return "swap";
    case MemoryPolicy::kRecomputeOnly:
      return "recompute";
  }
  return "?";
}

Result<MemoryPolicy> MemoryPolicyFromName(const std::string& name) {
  if (name == "auto") {
    return MemoryPolicy::kAuto;
  }
  if (name == "none") {
    return MemoryPolicy::kNone;
  }
  if (name == "swap") {
    return MemoryPolicy::kSwapOnly;
  }
  if (name == "recompute") {
    return MemoryPolicy::kRecomputeOnly;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown memory policy '" + name +
                    "' (expected auto|none|swap|recompute)");
}

std::string MemoryPricing::Fingerprint() const {
  return StrFormat("mbw=%.17g;", HostBandwidth());
}

namespace {

struct Candidate {
  TensorId root = 0;
  Residency residency = Residency::kSwap;
  double bytes = 0.0;
  double overhead_seconds = 0.0;
};

MemorySchedule BuildSchedule(const std::vector<Candidate>& marked,
                             std::int64_t budget_bytes, std::int64_t baseline_peak,
                             double host_bandwidth) {
  MemorySchedule schedule;
  schedule.budget_bytes = budget_bytes;
  schedule.baseline_peak_bytes = baseline_peak;
  schedule.host_bandwidth = host_bandwidth;
  for (const Candidate& c : marked) {
    MemoryDecision d;
    d.tensor = c.root;
    d.residency = c.residency;
    d.bytes = c.bytes;
    d.overhead_seconds = c.overhead_seconds;
    schedule.decisions.push_back(d);
    if (c.residency == Residency::kSwap) {
      schedule.swap_bytes += 2.0 * c.bytes;
      schedule.swap_seconds += c.overhead_seconds;
    } else {
      schedule.recompute_seconds += c.overhead_seconds;
    }
  }
  std::sort(schedule.decisions.begin(), schedule.decisions.end(),
            [](const MemoryDecision& a, const MemoryDecision& b) {
              return a.tensor < b.tensor;
            });
  return schedule;
}

}  // namespace

RepairResult BuildRepairSchedule(const Graph& graph, const PartitionPlan& plan,
                                 std::int64_t budget_bytes, MemoryPolicy policy,
                                 const MemoryPricing& pricing) {
  RepairResult result;
  if (policy == MemoryPolicy::kNone) {
    return result;
  }
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  const std::int64_t baseline_peak = LivenessPeakShardBytes(graph, plan);
  const double host_bw = pricing.HostBandwidth();
  const double work_fraction = 1.0 / static_cast<double>(std::max(1, plan.num_workers));
  const int num_tensors = graph.num_tensors();

  // Which roots head an in-place alias chain with more than one member: a single
  // producer re-run cannot reconstruct the accumulated state, so they are swap-only.
  std::vector<bool> aliased(static_cast<size_t>(num_tensors), false);
  for (TensorId t = 0; t < num_tensors; ++t) {
    if (live.buffer[static_cast<size_t>(t)] != t) {
      aliased[static_cast<size_t>(live.buffer[static_cast<size_t>(t)])] = true;
    }
  }

  std::vector<Candidate> candidates;
  for (TensorId b = 0; b < num_tensors; ++b) {
    if (!live.IsRoot(b) || live.buf_bytes[static_cast<size_t>(b)] <= 0) {
      continue;
    }
    const double bytes = static_cast<double>(live.buf_bytes[static_cast<size_t>(b)]);
    const double swap_seconds =
        2.0 * (pricing.cluster.link_latency_s + bytes / host_bw);
    const bool can_swap = policy != MemoryPolicy::kRecomputeOnly;
    const bool can_recompute = policy != MemoryPolicy::kSwapOnly &&
                               !live.IsModelState(b) &&
                               !aliased[static_cast<size_t>(b)];
    Candidate c;
    c.root = b;
    c.bytes = bytes;
    if (can_recompute) {
      // One extra shard-kernel run of the producer at the plan's shard granularity.
      const OpNode& producer = graph.op(graph.tensor(b).producer);
      const Shape out_shape = plan.steps.empty() ? graph.tensor(b).shape
                                                 : plan.ShardShape(graph, b);
      c.residency = Residency::kRecompute;
      c.overhead_seconds =
          ShardKernelSeconds(pricing.cluster.gpu, FullOpWork(graph, producer),
                             work_fraction, EfficiencyRows(producer, out_shape));
    }
    if (can_swap && (!can_recompute || swap_seconds < c.overhead_seconds)) {
      c.residency = Residency::kSwap;
      c.overhead_seconds = swap_seconds;
    }
    if (!can_swap && !can_recompute) {
      continue;  // e.g. model state under kRecomputeOnly: must stay resident
    }
    candidates.push_back(c);
  }

  // Cheapest relief first: overhead per byte released, deterministic tie-breaks.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const double ra = a.overhead_seconds / a.bytes;
              const double rb = b.overhead_seconds / b.bytes;
              if (ra != rb) {
                return ra < rb;
              }
              if (a.overhead_seconds != b.overhead_seconds) {
                return a.overhead_seconds < b.overhead_seconds;
              }
              return a.root < b.root;
            });

  std::vector<Candidate> marked;
  marked.reserve(candidates.size());
  MemorySchedule schedule =
      BuildSchedule(marked, budget_bytes, baseline_peak, host_bw);
  std::int64_t peak = baseline_peak;
  if (peak <= budget_bytes) {
    // Already fits under plain liveness; an empty schedule documents that.
    schedule.scheduled_peak_bytes = peak;
    result.feasible = true;
    result.schedule = std::make_shared<const MemorySchedule>(std::move(schedule));
    result.min_achievable_peak_bytes = peak;
    return result;
  }
  for (const Candidate& c : candidates) {
    marked.push_back(c);
    schedule = BuildSchedule(marked, budget_bytes, baseline_peak, host_bw);
    peak = ScheduledPeakShardBytes(graph, plan, schedule);
    if (peak <= budget_bytes) {
      break;
    }
  }
  schedule.scheduled_peak_bytes = peak;
  result.feasible = peak <= budget_bytes;
  result.min_achievable_peak_bytes = peak;
  result.schedule = std::make_shared<const MemorySchedule>(std::move(schedule));
  return result;
}

std::int64_t MinAchievablePeakBytes(const Graph& graph, const PartitionPlan& plan) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan);
  MemorySchedule all_out;
  for (TensorId b = 0; b < graph.num_tensors(); ++b) {
    if (live.IsRoot(b) && live.buf_bytes[static_cast<size_t>(b)] > 0) {
      MemoryDecision d;
      d.tensor = b;
      d.residency = Residency::kSwap;
      all_out.decisions.push_back(d);
    }
  }
  return ScheduledPeakShardBytes(graph, plan, all_out);
}

}  // namespace tofu
