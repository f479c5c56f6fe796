#include "tofu/pipeline/stage_cost.h"

#include <algorithm>

#include "tofu/memory/liveness.h"
#include "tofu/util/logging.h"

namespace tofu {

std::vector<int> OpGroupIndex(const Graph& graph, const CoarseGraph& coarse) {
  std::vector<int> group(static_cast<size_t>(graph.num_ops()), -1);
  for (size_t g = 0; g < coarse.groups.size(); ++g) {
    const MacroGroup& mg = coarse.groups[g];
    for (int u : mg.units) {
      for (OpId op : coarse.units[static_cast<size_t>(u)].ops) {
        group[static_cast<size_t>(op)] = static_cast<int>(g);
      }
    }
    for (OpId op : mg.ew_ops) {
      group[static_cast<size_t>(op)] = static_cast<int>(g);
    }
  }
  for (OpId op = 0; op < graph.num_ops(); ++op) {
    TOFU_CHECK_GE(group[static_cast<size_t>(op)], 0);
  }
  return group;
}

CoarseGraph StageCoarse(const CoarseGraph& full, int first_group, int last_group) {
  TOFU_CHECK_GE(first_group, 0);
  TOFU_CHECK_GE(last_group, first_group);
  TOFU_CHECK_LT(static_cast<size_t>(last_group), full.groups.size());

  CoarseGraph out;
  out.tensor_slot = full.tensor_slot;  // slot ids stay global
  out.slots = full.slots;
  std::vector<int> unit_map(full.units.size(), -1);
  for (int g = first_group; g <= last_group; ++g) {
    MacroGroup mg = full.groups[static_cast<size_t>(g)];
    for (int& u : mg.units) {
      int& mapped = unit_map[static_cast<size_t>(u)];
      if (mapped < 0) {
        mapped = static_cast<int>(out.units.size());
        out.units.push_back(full.units[static_cast<size_t>(u)]);
      }
      u = mapped;
    }
    out.groups.push_back(std::move(mg));
  }
  return out;
}

std::vector<char> StageOpMask(const Graph& graph, const CoarseGraph& coarse,
                              int first_group, int last_group) {
  const std::vector<int> group = OpGroupIndex(graph, coarse);
  std::vector<char> mask(static_cast<size_t>(graph.num_ops()), 0);
  for (OpId op = 0; op < graph.num_ops(); ++op) {
    const int g = group[static_cast<size_t>(op)];
    mask[static_cast<size_t>(op)] = g >= first_group && g <= last_group ? 1 : 0;
  }
  return mask;
}

StageCostModel::StageCostModel(const Graph& graph, const CoarseGraph& coarse,
                               ClusterSpec cluster)
    : num_groups_(static_cast<int>(coarse.groups.size())), cluster_(cluster) {
  const std::vector<int> group = OpGroupIndex(graph, coarse);

  ops_.reserve(static_cast<size_t>(graph.num_ops()));
  for (const OpNode& op : graph.ops()) {
    OpCost cost;
    cost.group = group[static_cast<size_t>(op.id)];
    cost.backward = op.is_backward || op.is_update || op.is_grad_agg;
    cost.work = FullOpWork(graph, op);
    cost.rows = EfficiencyRows(op, graph.tensor(op.output).shape);
    ops_.push_back(cost);
  }

  // Boundary-crossing activation bytes, as difference arrays over cut positions.
  fwd_cross_.assign(static_cast<size_t>(num_groups_), 0.0);
  bwd_cross_.assign(static_cast<size_t>(num_groups_), 0.0);
  for (const TensorNode& t : graph.tensors()) {
    if (t.producer == kNoOp || IsModelState(graph, t)) {
      continue;
    }
    const int pg = group[static_cast<size_t>(t.producer)];
    int max_fwd = pg;
    int min_bwd = pg;
    for (OpId c : t.consumers) {
      const int cg = group[static_cast<size_t>(c)];
      max_fwd = std::max(max_fwd, cg);
      min_bwd = std::min(min_bwd, cg);
    }
    const double bytes = static_cast<double>(t.bytes());
    if (max_fwd > pg) {
      fwd_cross_[static_cast<size_t>(pg)] += bytes;
      fwd_cross_[static_cast<size_t>(max_fwd)] -= bytes;
    }
    if (min_bwd < pg) {
      bwd_cross_[static_cast<size_t>(min_bwd)] += bytes;
      bwd_cross_[static_cast<size_t>(pg)] -= bytes;
    }
  }
  double fwd_run = 0.0;
  double bwd_run = 0.0;
  for (int c = 0; c < num_groups_; ++c) {
    fwd_run += fwd_cross_[static_cast<size_t>(c)];
    fwd_cross_[static_cast<size_t>(c)] = fwd_run;
    bwd_run += bwd_cross_[static_cast<size_t>(c)];
    bwd_cross_[static_cast<size_t>(c)] = bwd_run;
  }

  // Model-state ownership: params / optimizer state go to their first consumer's group
  // (the layer that reads them); parameter gradients to their producer's group. Graph
  // inputs are batch data, not state -- they ride the pipeline like activations.
  std::vector<std::int64_t> state(static_cast<size_t>(num_groups_), 0);
  for (const TensorNode& t : graph.tensors()) {
    int owner = -1;
    if ((t.is_param || t.is_opt_state) && !t.consumers.empty()) {
      int min_cg = num_groups_;
      for (OpId c : t.consumers) {
        min_cg = std::min(min_cg, group[static_cast<size_t>(c)]);
      }
      owner = min_cg;
    } else if (t.grad_of != kNoTensor && graph.tensor(t.grad_of).is_param &&
               t.producer != kNoOp) {
      owner = group[static_cast<size_t>(t.producer)];
    }
    if (owner >= 0 && owner < num_groups_) {
      state[static_cast<size_t>(owner)] += t.bytes();
    }
  }
  state_prefix_.assign(static_cast<size_t>(num_groups_) + 1, 0);
  for (int g = 0; g < num_groups_; ++g) {
    state_prefix_[static_cast<size_t>(g) + 1] =
        state_prefix_[static_cast<size_t>(g)] + state[static_cast<size_t>(g)];
  }
}

void StageCostModel::PerGroupPassSeconds(int workers, int micro_batches,
                                         std::vector<double>* fwd,
                                         std::vector<double>* bwd) const {
  TOFU_CHECK_GE(workers, 1);
  TOFU_CHECK_GE(micro_batches, 1);
  fwd->assign(static_cast<size_t>(num_groups_), 0.0);
  bwd->assign(static_cast<size_t>(num_groups_), 0.0);
  const double work_fraction =
      1.0 / (static_cast<double>(workers) * static_cast<double>(micro_batches));
  for (const OpCost& op : ops_) {
    const double seconds = ShardKernelSeconds(
        cluster_.gpu, op.work, work_fraction, op.rows / static_cast<double>(micro_batches));
    std::vector<double>& pass = op.backward ? *bwd : *fwd;
    pass[static_cast<size_t>(op.group)] += seconds;
  }
}

double StageCostModel::ForwardCrossingBytes(int cut_after) const {
  TOFU_CHECK_GE(cut_after, 0);
  TOFU_CHECK_LT(cut_after, num_groups_);
  return fwd_cross_[static_cast<size_t>(cut_after)];
}

double StageCostModel::BackwardCrossingBytes(int cut_after) const {
  TOFU_CHECK_GE(cut_after, 0);
  TOFU_CHECK_LT(cut_after, num_groups_);
  return bwd_cross_[static_cast<size_t>(cut_after)];
}

std::int64_t StageCostModel::StateBytes(int first, int last) const {
  TOFU_CHECK_GE(first, 0);
  TOFU_CHECK_GE(last, first);
  TOFU_CHECK_LT(last, num_groups_);
  return state_prefix_[static_cast<size_t>(last) + 1] -
         state_prefix_[static_cast<size_t>(first)];
}

std::int64_t StageAllResidentShardBytes(const Graph& graph, const PartitionPlan& plan,
                                        const std::vector<char>& op_in_stage) {
  const LivenessAnalysis live = AnalyzeLiveness(graph, plan, op_in_stage);
  std::int64_t total = 0;
  for (std::int64_t bytes : live.buf_bytes) {
    total += bytes;  // zero for aliases and for buffers off the stage
  }
  return total;
}

}  // namespace tofu
