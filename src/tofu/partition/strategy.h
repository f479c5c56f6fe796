// Per-step strategy evaluation: concretizing TDL strategies against the current
// (recursively shrunken) tensor shapes, checking applicability at a split factor,
// charging communication bytes, picking each operator's cheapest strategy, and folding
// finished steps into a multi-step plan.
//
// The cost convention follows Lemma 1 (appendix A.3): every term is a constant multiple
// of a tensor's (current) size. For a tensor of bytes S split f ways:
//
//   input required split along dim d, stored cut d:          2*(f-1) * halo_slab
//   input required split along d, stored cut d' != d:        S*(f-1)/f  (+ halo)
//   input required split, stored replicated:                 0
//   input required whole (replicated req), stored cut:       S*(f-1)
//   output produced split along d, stored cut d:             0
//   output produced split along d, stored cut d' != d:       S*(f-1)/f
//   output produced split along d, stored replicated:        S*(f-1)   (all-gather)
//   case-2 partial outputs, stored cut:                      S*(f-1)   (reduce-scatter)
//   case-2 partial outputs, stored replicated:               2*S*(f-1) (all-reduce)
//
// All figures are total bytes moved among the f parts of one group during one execution
// of the operator. InputCommBytes / OutputCommBytes below are this table, and the only
// copy of it: StepContext charges through them, the DP precomputes them once per
// (term, cut option) when it compiles a step (dp.cc), and the flat DP calls them on the
// sizes it tracks per tiling (flat_dp.cc).
#ifndef TOFU_PARTITION_STRATEGY_H_
#define TOFU_PARTITION_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tofu/graph/graph.h"
#include "tofu/partition/plan.h"

namespace tofu {

// Tensors at or below this size may be stored replicated (biases, normalization scales,
// scalars). Substantial tensors must be partitioned, preserving the 1/k-memory property.
inline constexpr std::int64_t kReplicateThresholdBytes = 64 << 10;

// The requirement replicated execution (kReplicatedExec) puts on every input: whole.
inline constexpr ConcreteInputReq kWholeInput{};

// Input rows of the table: the gather one operand of `bytes` (its current size) needs
// before the op runs `ways` ways under requirement `req`, given its `stored_cut`.
// `req_extent` is the operand's extent along req.dim, which sizes the halo slab
// (req.halo_elems rows along req.dim, exchanged at every internal boundary, both
// directions); it is not read for whole requirements.
inline double InputCommBytes(double bytes, int ways, const ConcreteInputReq& req,
                             std::int64_t req_extent, int stored_cut) {
  const double f = static_cast<double>(ways);
  if (stored_cut == kReplicated) {
    return 0.0;  // every worker already holds the whole tensor
  }
  if (req.kind == InputReq::Kind::kReplicated) {
    return bytes * (f - 1.0);  // every worker all-gathers the other shards
  }
  double halo_bytes = 0.0;
  if (req.halo_elems > 0 && req_extent > 0) {
    const double slab =
        bytes * static_cast<double>(req.halo_elems) / static_cast<double>(req_extent);
    halo_bytes = 2.0 * (f - 1.0) * slab;
  }
  if (stored_cut == req.dim) {
    return halo_bytes;  // aligned: only the halo moves
  }
  // Mismatched dimensions: each worker already holds 1/f of what it needs.
  return bytes * (f - 1.0) / f + halo_bytes;
}

// Output rows of the table: the shuffle or reduction the output of `bytes` needs after
// the op runs `ways` ways under `strat`, given its `stored_cut`.
inline double OutputCommBytes(double bytes, int ways, const ConcreteStrategy& strat,
                              int stored_cut) {
  const double f = static_cast<double>(ways);
  if (strat.is_reduction) {
    // Partial outputs of full size on every worker, combined with a spread-out reduction
    // (reduce-scatter; §6's all-reduce spreading). Replicated storage needs the
    // follow-up all-gather as well.
    return stored_cut == kReplicated ? 2.0 * bytes * (f - 1.0) : bytes * (f - 1.0);
  }
  if (stored_cut == strat.output_dim) {
    return 0.0;  // the output already lands in the stored cut
  }
  if (stored_cut == kReplicated) {
    return bytes * (f - 1.0);  // all-gather the concatenated output
  }
  return bytes * (f - 1.0) / f;  // shuffle between the two cuts
}

class StepContext {
 public:
  // `shapes` are the current per-tensor shapes (already shrunken by earlier recursive
  // steps); `ways` is this step's split factor.
  StepContext(const Graph& graph, std::vector<Shape> shapes, int ways);

  const Graph& graph() const { return *graph_; }
  int ways() const { return ways_; }
  const Shape& shape(TensorId t) const { return shapes_[static_cast<size_t>(t)]; }
  std::int64_t bytes(TensorId t) const;

  // The op's strategies concretized against current shapes (cached; O(1) after the
  // first call -- the cache is a dense per-op array, this is the search's hottest read).
  const std::vector<ConcreteStrategy>& Strategies(OpId op);

  // True when strategy `sidx` of `op` can split `ways` ways at current shapes.
  bool Applicable(OpId op, int sidx);

  // Valid storage cuts for a tensor at this step: every dimension with extent >= ways,
  // plus kReplicated for small tensors (or when nothing else qualifies). Computed once
  // per tensor per step and cached (callers hit this per slot, per state, per greedy
  // refinement pass -- never recompute).
  const std::vector<int>& CutOptions(TensorId t);

  // Communication bytes of executing `op` with strategy `sidx` (kReplicatedExec allowed),
  // given the storage cuts in `tensor_cut` (indexed by TensorId; only the op's own tensors
  // are read). Split into the pre-compute input gather and the post-compute output
  // shuffle/reduction; OpCommBytes is their sum.
  double OpInputCommBytes(OpId op, int sidx, const std::vector<int>& tensor_cut);
  double OpOutputCommBytes(OpId op, int sidx, const std::vector<int>& tensor_cut);
  double OpCommBytes(OpId op, int sidx, const std::vector<int>& tensor_cut);

  // Derives the forced strategy of an element-wise op from its output's cut: the case-1
  // strategy along that dimension (or kReplicatedExec for replicated storage).
  int ForcedElementwiseStrategy(OpId op, const std::vector<int>& tensor_cut);

  // Shapes after applying a basic plan at this step (partitioned dims ceil-divided).
  static std::vector<Shape> ApplyBasicPlan(const Graph& graph,
                                           const std::vector<Shape>& shapes,
                                           const BasicPlan& plan);

  // Initial shapes (the unpartitioned graph).
  static std::vector<Shape> InitialShapes(const Graph& graph);

 private:
  const Graph* graph_;
  std::vector<Shape> shapes_;
  int ways_;
  // Dense per-op / per-tensor caches (ids are contiguous), filled lazily. Concretized
  // strategy lists are shared between ops with identical semantics and shapes (unrolled
  // RNN timesteps concretize once, not once per timestep).
  std::vector<const std::vector<ConcreteStrategy>*> strategy_cache_;
  std::unordered_map<std::string, std::unique_ptr<std::vector<ConcreteStrategy>>>
      shared_strategies_;
  std::vector<std::vector<int>> cut_options_cache_;
  std::vector<char> cut_options_cached_;
};

// The per-op strategy pick under fixed tensor cuts: fills plan->op_strategy with each
// operator's cheapest applicable strategy (replicated execution competes on cost and wins
// ties, matching the DP's UnitCost) and plan->comm_bytes with the step's total, which it
// also returns. Every plan builder that fixes cuts without the DP picks strategies here.
double AssignGreedyOpStrategies(StepContext* ctx, BasicPlan* plan,
                                bool allow_reduction_strategies = true);

// Folds finished steps into a multi-step plan: each step's bytes weighted by the number
// of worker groups at its level (appendix Eq. 3), its seconds over the link it crosses,
// and the shrunken shapes the next step partitions. The one step loop of every plan
// builder: the recursion and its lightest-cuts fallback, the greedy baselines,
// EqualChop and the flat DP.
class StepFold {
 public:
  // Starts from the unpartitioned shapes; `plan` receives every appended step.
  StepFold(const Graph& graph, PartitionPlan* plan);

  // The shapes the next step sees (every earlier step's cuts applied).
  const std::vector<Shape>& shapes() const { return shapes_; }

  // Appends `step`. A positive `link_bandwidth` (bytes/s) prices it into
  // step.comm_seconds, plan->step_seconds and plan->estimated_comm_seconds;
  // step_seconds stays parallel to steps once any step had a bandwidth (0 for those
  // without) and empty while none has -- a topology-agnostic plan carries no estimates.
  void Append(BasicPlan step, double link_bandwidth);

 private:
  const Graph* graph_;
  PartitionPlan* plan_;
  std::vector<Shape> shapes_;
  double groups_ = 1.0;
};

}  // namespace tofu

#endif  // TOFU_PARTITION_STRATEGY_H_
