#include "tofu/partition/baselines.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "tofu/partition/strategy.h"
#include "tofu/util/logging.h"

namespace tofu {
namespace {

// First dimension with extent >= ways, else the largest dimension, else replicated.
int FirstDimCut(const Shape& shape, int ways) {
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] >= ways) {
      return static_cast<int>(d);
    }
  }
  return kReplicated;
}

// Builds a multi-step plan from a per-step cut assignment callback.
template <typename CutFn>
PartitionPlan BuildStepwisePlan(const Graph& graph, int num_workers, CutFn&& assign_cuts) {
  PartitionPlan plan;
  plan.num_workers = num_workers;
  if (num_workers <= 1) {
    return plan;
  }
  plan.step_factors = FactorizeWorkers(num_workers);
  StepFold fold(graph, &plan);
  for (int factor : plan.step_factors) {
    StepContext ctx(graph, fold.shapes(), factor);
    BasicPlan step;
    step.ways = factor;
    step.tensor_cut.assign(static_cast<size_t>(graph.num_tensors()), kReplicated);
    assign_cuts(&ctx, &step);
    AssignGreedyOpStrategies(&ctx, &step);
    fold.Append(std::move(step), 0.0);
  }
  return plan;
}

}  // namespace

PartitionPlan DataParallelPlan(const Graph& graph, int num_workers) {
  // Weight-gradient traffic: the final parameter gradients (grad_of links) plus every
  // partial contribution feeding them through gradient-aggregation adds (an unrolled
  // RNN's per-timestep weight gradients). Aggregation outputs have larger ids than their
  // inputs, so one reverse-id pass sees each consumer's output before its inputs.
  std::vector<bool> weight_grad(static_cast<size_t>(graph.num_tensors()), false);
  for (TensorId t = graph.num_tensors() - 1; t >= 0; --t) {
    const TensorNode& node = graph.tensor(t);
    if (node.grad_of != kNoTensor && graph.tensor(node.grad_of).is_param) {
      weight_grad[static_cast<size_t>(t)] = true;
      continue;
    }
    for (OpId c : node.consumers) {
      const OpNode& op = graph.op(c);
      if (op.is_grad_agg && weight_grad[static_cast<size_t>(op.output)]) {
        weight_grad[static_cast<size_t>(t)] = true;
        break;
      }
    }
  }

  return BuildStepwisePlan(graph, num_workers, [&](StepContext* ctx, BasicPlan* step) {
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      const TensorNode& node = graph.tensor(t);
      // Model state stays replicated on every worker: weights, optimizer history, weight
      // gradients (the all-reduce their producers' case-2 strategies charge), and the
      // updated weight/history tensors the optimizer ops emit.
      const bool model_state =
          node.is_param || node.is_opt_state || weight_grad[static_cast<size_t>(t)] ||
          (node.producer != kNoOp && graph.op(node.producer).is_update);
      if (model_state) {
        continue;
      }
      const Shape& shape = ctx->shape(t);
      if (!shape.empty() && shape[0] >= step->ways) {
        step->tensor_cut[static_cast<size_t>(t)] = 0;  // the batch dimension
      }
    }
  });
}

PartitionPlan AllRowGreedyPlan(const Graph& graph, int num_workers) {
  return BuildStepwisePlan(graph, num_workers, [&](StepContext* ctx, BasicPlan* step) {
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      step->tensor_cut[static_cast<size_t>(t)] = FirstDimCut(ctx->shape(t), step->ways);
    }
  });
}

PartitionPlan SpartanGreedyPlan(const Graph& graph, int num_workers) {
  return BuildStepwisePlan(graph, num_workers, [&](StepContext* ctx, BasicPlan* step) {
    // Initialize with first-dimension cuts, then refine tensors largest-first: each tensor
    // takes the cut minimizing the summed cost of its incident operators against the
    // current assignment (Spartan's smart-tiling greedy, adapted to partition-n-reduce).
    for (TensorId t = 0; t < graph.num_tensors(); ++t) {
      step->tensor_cut[static_cast<size_t>(t)] = FirstDimCut(ctx->shape(t), step->ways);
    }
    std::vector<TensorId> order(static_cast<size_t>(graph.num_tensors()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](TensorId a, TensorId b) {
      return ctx->bytes(a) > ctx->bytes(b);
    });

    auto incident_cost = [&](TensorId t) {
      double total = 0.0;
      auto op_cost = [&](OpId op) {
        double best = std::numeric_limits<double>::infinity();
        const int n = static_cast<int>(ctx->Strategies(op).size());
        for (int sidx = 0; sidx < n; ++sidx) {
          if (ctx->Applicable(op, sidx)) {
            best = std::min(best, ctx->OpCommBytes(op, sidx, step->tensor_cut));
          }
        }
        if (best == std::numeric_limits<double>::infinity()) {
          best = ctx->OpCommBytes(op, kReplicatedExec, step->tensor_cut);
        }
        return best;
      };
      const TensorNode& node = graph.tensor(t);
      if (node.producer != kNoOp) {
        total += op_cost(node.producer);
      }
      for (OpId c : node.consumers) {
        total += op_cost(c);
      }
      return total;
    };

    for (TensorId t : order) {
      double best_cost = std::numeric_limits<double>::infinity();
      int best_cut = step->tensor_cut[static_cast<size_t>(t)];
      for (int cut : ctx->CutOptions(t)) {
        step->tensor_cut[static_cast<size_t>(t)] = cut;
        const double cost = incident_cost(t);
        if (cost < best_cost) {
          best_cost = cost;
          best_cut = cut;
        }
      }
      step->tensor_cut[static_cast<size_t>(t)] = best_cut;
    }
  });
}

PartitionPlan EqualChopPlan(const Graph& graph, int num_workers,
                            const PartitionOptions& options) {
  PartitionPlan plan;
  plan.num_workers = num_workers;
  if (num_workers <= 1) {
    return plan;
  }
  // One k-way step: every tensor chopped along exactly one dimension.
  plan.step_factors = {num_workers};
  const CoarseGraph coarse = Coarsen(graph, options.coarsen);
  StepFold fold(graph, &plan);
  StepContext ctx(graph, fold.shapes(), num_workers);
  DpResult dp = RunStepDp(&ctx, coarse, options.dp);
  plan.search_stats = dp.stats;
  fold.Append(std::move(dp.plan), /*link_bandwidth=*/0.0);
  return plan;
}

PartitionPlan Icml18Plan(const Graph& graph, int num_workers,
                         const PartitionOptions& options) {
  PartitionOptions no_reduction = options;
  no_reduction.dp.allow_reduction_strategies = false;
  return RecursivePartition(graph, num_workers, no_reduction);
}

}  // namespace tofu
