#include "tofu/pipeline/compose.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "tofu/memory/liveness.h"
#include "tofu/memory/schedule.h"
#include "tofu/pipeline/pipeline_sim.h"
#include "tofu/pipeline/stage_cost.h"
#include "tofu/util/logging.h"

namespace tofu {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Upper bound on the stage count: candidates are the divisors S of num_workers with
// S <= min(kMaxStages, #macro groups).
constexpr int kMaxStages = 8;
// Micro-batches per stage: M = kMicroBatchesPerStage * S, capped by the batch extent
// (dimension 0 of the first graph input). More micro-batches shrink the pipeline
// bubble but multiply kernel-launch overhead; 4S keeps the bubble under ~25% of steady
// state.
constexpr int kMicroBatchesPerStage = 4;

// Batch extent driving the micro-batch cap: dimension 0 of the first graph input.
int BatchExtent(const Graph& graph) {
  for (const TensorNode& t : graph.tensors()) {
    if (t.is_input && !t.shape.empty()) {
      return static_cast<int>(t.shape[0]);
    }
  }
  return 1;
}

// Scalar bandwidth for stage-boundary pricing and the stage DP's cut proposals: the
// coarsest link the pipeline replaces, or the caller's fallback.
double BoundaryBandwidth(const PartitionOptions& options, const HybridOptions& hybrid) {
  if (!options.step_bandwidths.empty()) {
    return options.step_bandwidths.front();
  }
  return hybrid.fallback_bandwidth > 0.0 ? hybrid.fallback_bandwidth : 21e9;
}

// Transfer time of `bytes` from stage worker range [src_first, src_first + w) to
// [dst_first, dst_first + w), through the interconnect's link graph when present
// (uniform spread, so oversubscribed uplinks show their contention), else over the
// scalar boundary bandwidth.
double BoundarySeconds(const PartitionOptions& options, const HybridOptions& hybrid,
                       double bytes, int src_first, int dst_first, int w) {
  if (bytes <= 0.0) {
    return 0.0;
  }
  const Interconnect* net = hybrid.interconnect.get();
  if (net != nullptr && src_first + w <= net->num_workers() &&
      dst_first + w <= net->num_workers()) {
    TrafficMatrix traffic(net->num_workers());
    const double per_pair = bytes / (static_cast<double>(w) * static_cast<double>(w));
    for (int s = 0; s < w; ++s) {
      for (int d = 0; d < w; ++d) {
        traffic.At(src_first + s, dst_first + d) = per_pair;
      }
    }
    return net->TransferSeconds(traffic);
  }
  return bytes / BoundaryBandwidth(options, hybrid);
}

// The inner searches see the SUFFIX of the full topology's per-step bandwidths: the
// pipeline consumes the coarsest len(factors(S)) splits (its stages sit on opposite
// sides of those links), the intra-stage recursion runs on what remains. At least the
// last entry survives so deeper steps keep their (reused-last-entry) pricing.
std::vector<double> StageStepBandwidths(const std::vector<double>& full, int num_workers,
                                        int stage_workers) {
  if (full.empty()) {
    return full;
  }
  const size_t consumed = FactorizeWorkers(num_workers).size() -
                          FactorizeWorkers(std::max(stage_workers, 1)).size();
  const size_t keep_from = std::min(consumed, full.size() - 1);
  return std::vector<double>(full.begin() + static_cast<std::ptrdiff_t>(keep_from),
                             full.end());
}

struct Candidate {
  PartitionPlan plan;
  double total_seconds = kInf;
  // The plan's memory verdict (PlanPeakShardBytes; a pipeline's max stage peak). Only
  // infeasible candidates compare it, so S = 1 computes it only under a budget.
  std::int64_t peak_bytes = 0;
  bool feasible = true;
  bool valid = false;
};

// Prefer feasible over infeasible; among feasible candidates, strictly lower estimated
// total time, and among infeasible ones strictly lower peak, so a search that cannot
// fit returns its lightest plan. Ties keep the incumbent (candidates arrive in
// ascending stage count, so the simplest plan -- pure Tofu at S = 1 -- wins ties and
// the degenerate case stays byte-identical).
bool Beats(const Candidate& challenger, const Candidate& incumbent) {
  if (!incumbent.valid) {
    return challenger.valid;
  }
  if (challenger.feasible != incumbent.feasible) {
    return challenger.feasible;
  }
  if (!challenger.feasible) {
    return challenger.peak_bytes < incumbent.peak_bytes;
  }
  return challenger.total_seconds < incumbent.total_seconds;
}

}  // namespace

PartitionPlan HybridPartition(const Graph& graph, int num_workers,
                              const PartitionOptions& options,
                              const HybridOptions& hybrid) {
  const auto t_begin = std::chrono::steady_clock::now();
  if (num_workers <= 1) {
    return RecursivePartition(graph, num_workers, options);
  }
  const CoarseGraph coarse = Coarsen(graph, options.coarsen);
  const int G = static_cast<int>(coarse.groups.size());
  if (G == 0) {
    return RecursivePartitionCoarse(graph, num_workers, coarse, options);
  }

  const StageCostModel cost(graph, coarse, hybrid.cluster);
  const std::vector<int> op_group = OpGroupIndex(graph, coarse);
  const std::int64_t budget = options.memory_budget_bytes;
  const double boundary_bw = BoundaryBandwidth(options, hybrid);
  const int batch = std::max(BatchExtent(graph), 1);

  // Tensors a stage's workers materialize (producer or a consumer inside the range):
  // everything else in an inner plan is rewritten to kReplicated below.
  auto tensor_in_stage = [&](const TensorNode& t, int first, int last) {
    if (t.producer != kNoOp) {
      const int pg = op_group[static_cast<size_t>(t.producer)];
      if (pg >= first && pg <= last) {
        return true;
      }
    }
    for (OpId c : t.consumers) {
      const int cg = op_group[static_cast<size_t>(c)];
      if (cg >= first && cg <= last) {
        return true;
      }
    }
    return false;
  };

  Candidate best;
  const int max_stages = std::min({kMaxStages, G, num_workers});
  for (int S = 1; S <= max_stages; ++S) {
    if (num_workers % S != 0) {
      continue;
    }
    if (S == 1) {
      // The degenerate candidate IS the pure recursive plan, untouched -- repaired by
      // the recursion's memory policy when the budget needs it, in which case it is
      // judged by the peak its schedule proves and pays the schedule's overhead.
      Candidate pure;
      pure.plan = RecursivePartitionCoarse(graph, num_workers, coarse, options);
      std::vector<double> f;
      std::vector<double> b;
      cost.PerGroupPassSeconds(num_workers, 1, &f, &b);
      double compute = 0.0;
      for (int g = 0; g < G; ++g) {
        compute += f[static_cast<size_t>(g)] + b[static_cast<size_t>(g)];
      }
      const double comm = pure.plan.estimated_comm_seconds > 0.0
                              ? pure.plan.estimated_comm_seconds
                              : pure.plan.total_comm_bytes / boundary_bw;
      pure.total_seconds = compute + comm;
      if (pure.plan.memory_schedule != nullptr) {
        pure.total_seconds += pure.plan.memory_schedule->AnalyticOverheadSeconds();
      }
      if (budget > 0) {
        pure.peak_bytes = PlanPeakShardBytes(graph, pure.plan);
      }
      pure.feasible = budget <= 0 || pure.peak_bytes <= budget;
      pure.valid = true;
      if (Beats(pure, best)) {
        best = std::move(pure);
      }
      continue;
    }

    const int w = num_workers / S;
    const int M = std::max(1, std::min(kMicroBatchesPerStage * S, batch));

    // Per-group, per-micro-batch pass times at this candidate's (w, M).
    std::vector<double> f;
    std::vector<double> b;
    cost.PerGroupPassSeconds(w, M, &f, &b);
    std::vector<double> pf(static_cast<size_t>(G) + 1, 0.0);
    std::vector<double> pb(static_cast<size_t>(G) + 1, 0.0);
    for (int g = 0; g < G; ++g) {
      pf[static_cast<size_t>(g) + 1] = pf[static_cast<size_t>(g)] + f[static_cast<size_t>(g)];
      pb[static_cast<size_t>(g) + 1] = pb[static_cast<size_t>(g)] + b[static_cast<size_t>(g)];
    }
    // Per-micro-batch load of the contiguous range [a, b]: both passes' compute plus
    // the outgoing boundary transfers (scalar-priced; the composed candidate re-prices
    // the chosen boundaries through the interconnect). Ranges whose model state cannot
    // fit the per-worker budget even fully sharded are excluded -- this is the
    // "budget-infeasible -> more stages" lever: shrinking ranges (more stages) always
    // reduces state per worker.
    auto range_load = [&](int a, int g) -> double {
      if (budget > 0 &&
          cost.StateBytes(a, g) / static_cast<std::int64_t>(w) > budget) {
        return kInf;
      }
      double load = (pf[static_cast<size_t>(g) + 1] - pf[static_cast<size_t>(a)]) +
                    (pb[static_cast<size_t>(g) + 1] - pb[static_cast<size_t>(a)]);
      if (g < G - 1) {
        load += (cost.ForwardCrossingBytes(g) + cost.BackwardCrossingBytes(g)) /
                (static_cast<double>(M) * boundary_bw);
      }
      return load;
    };

    // PipeDream-style bottleneck DP over contiguous group ranges: T[s][g] = the best
    // achievable max-stage-load splitting groups [0, g] into s stages.
    std::vector<std::vector<double>> T(
        static_cast<size_t>(S) + 1, std::vector<double>(static_cast<size_t>(G), kInf));
    std::vector<std::vector<int>> parent(
        static_cast<size_t>(S) + 1, std::vector<int>(static_cast<size_t>(G), -1));
    for (int g = 0; g <= G - S; ++g) {
      T[1][static_cast<size_t>(g)] = range_load(0, g);
    }
    for (int s = 2; s <= S; ++s) {
      for (int g = s - 1; g < G; ++g) {
        for (int c = s - 2; c < g; ++c) {
          const double prev = T[static_cast<size_t>(s) - 1][static_cast<size_t>(c)];
          if (prev == kInf) {
            continue;
          }
          const double load = range_load(c + 1, g);
          const double v = std::max(prev, load);
          if (v < T[static_cast<size_t>(s)][static_cast<size_t>(g)]) {
            T[static_cast<size_t>(s)][static_cast<size_t>(g)] = v;
            parent[static_cast<size_t>(s)][static_cast<size_t>(g)] = c;
          }
        }
      }
    }
    if (T[static_cast<size_t>(S)][static_cast<size_t>(G) - 1] == kInf) {
      continue;  // no boundary placement fits the budget at this stage count
    }
    std::vector<std::pair<int, int>> ranges(static_cast<size_t>(S));
    int g = G - 1;
    for (int s = S; s >= 1; --s) {
      const int c = s == 1 ? -1 : parent[static_cast<size_t>(s)][static_cast<size_t>(g)];
      ranges[static_cast<size_t>(s) - 1] = {c + 1, g};
      g = c;
    }

    // Compose: run the budget-aware recursive DP inside each stage on the
    // stage-filtered coarse graph, then assemble the pipeline's analytic cost. Stage
    // plans stay pure: the repair pass would judge a stage by whole-graph liveness,
    // and offloading is the S = 1 candidate's lever, not a stage's.
    auto pipe = std::make_shared<PipelinePlan>();
    pipe->num_stages = S;
    pipe->micro_batches = M;
    PartitionOptions inner_options = options;
    inner_options.step_bandwidths =
        StageStepBandwidths(options.step_bandwidths, num_workers, w);
    inner_options.memory_policy = MemoryPolicy::kNone;
    SearchStats merged;
    double total_comm_bytes = 0.0;
    double comm_seconds = 0.0;
    std::int64_t peak_bytes = 0;
    for (int s = 0; s < S; ++s) {
      const int first = ranges[static_cast<size_t>(s)].first;
      const int last = ranges[static_cast<size_t>(s)].second;
      PipelineStage stage;
      stage.first_group = first;
      stage.last_group = last;
      stage.num_workers = w;
      stage.first_worker = s * w;

      const CoarseGraph stage_coarse = StageCoarse(coarse, first, last);
      stage.plan = RecursivePartitionCoarse(graph, w, stage_coarse, inner_options);
      // Off-stage tensors are never materialized by this stage's workers; store them
      // kReplicated so the inner plan's shard accessors answer only for what the stage
      // actually holds. Off-stage ops are already kReplicatedExec (filtered units).
      for (BasicPlan& step : stage.plan.steps) {
        for (TensorId t = 0; t < graph.num_tensors(); ++t) {
          if (!tensor_in_stage(graph.tensor(t), first, last)) {
            step.tensor_cut[static_cast<size_t>(t)] = kReplicated;
          }
        }
      }
      merged.Merge(stage.plan.search_stats);
      stage.plan.search_stats.wall_seconds = 0.0;  // keep serialization deterministic

      const double inner_comm =
          stage.plan.estimated_comm_seconds > 0.0
              ? stage.plan.estimated_comm_seconds
              : stage.plan.total_comm_bytes / boundary_bw;
      total_comm_bytes += stage.plan.total_comm_bytes;
      comm_seconds += inner_comm;
      // Intra-stage partition comm is priced for the full batch; spread it evenly
      // across micro-batches and the two passes.
      const double inner_comm_per_pass = inner_comm / (2.0 * static_cast<double>(M));
      stage.fwd_seconds = (pf[static_cast<size_t>(last) + 1] -
                           pf[static_cast<size_t>(first)]) +
                          inner_comm_per_pass;
      stage.bwd_seconds = (pb[static_cast<size_t>(last) + 1] -
                           pb[static_cast<size_t>(first)]) +
                          inner_comm_per_pass;
      if (s < S - 1) {
        const double fwd_bytes =
            cost.ForwardCrossingBytes(last) / static_cast<double>(M);
        const double bwd_bytes =
            cost.BackwardCrossingBytes(last) / static_cast<double>(M);
        stage.activation_bytes = fwd_bytes;
        stage.transfer_fwd_seconds =
            BoundarySeconds(options, hybrid, fwd_bytes, s * w, (s + 1) * w, w);
        stage.transfer_bwd_seconds =
            BoundarySeconds(options, hybrid, bwd_bytes, (s + 1) * w, s * w, w);
        comm_seconds += static_cast<double>(M) *
                        (stage.transfer_fwd_seconds + stage.transfer_bwd_seconds);
        total_comm_bytes +=
            cost.ForwardCrossingBytes(last) + cost.BackwardCrossingBytes(last);
      }

      const std::vector<char> mask = StageOpMask(graph, coarse, first, last);
      stage.peak_bytes = PlanPeakShardBytes(graph, stage.plan, mask);
      stage.all_resident_bytes = StageAllResidentShardBytes(graph, stage.plan, mask);
      peak_bytes = std::max(peak_bytes, stage.peak_bytes);
      pipe->stages.push_back(std::move(stage));
    }
    for (const PipelineStage& stage : pipe->stages) {
      pipe->bottleneck_seconds = std::max(pipe->bottleneck_seconds,
                                          stage.fwd_seconds + stage.bwd_seconds);
    }
    pipe->pipeline_seconds = AnalyticPipelineSeconds(*pipe);
    pipe->comm_seconds = comm_seconds;

    Candidate candidate;
    candidate.plan.num_workers = num_workers;
    candidate.plan.total_comm_bytes = total_comm_bytes;
    candidate.plan.estimated_comm_seconds = comm_seconds;
    candidate.plan.memory_budget_bytes = budget;
    candidate.plan.memory_feasible = budget <= 0 || peak_bytes <= budget;
    candidate.plan.search_stats = merged;
    candidate.plan.pipeline = pipe;
    candidate.total_seconds = pipe->pipeline_seconds;
    candidate.peak_bytes = peak_bytes;
    candidate.feasible = candidate.plan.memory_feasible;
    candidate.valid = true;
    if (Beats(candidate, best)) {
      best = std::move(candidate);
    }
  }

  TOFU_CHECK(best.valid);  // S = 1 always produces a candidate
  if (best.plan.pipeline != nullptr) {
    best.plan.search_stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
            .count();
  }
  return best.plan;
}

}  // namespace tofu
