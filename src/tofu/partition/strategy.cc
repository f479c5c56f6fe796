#include "tofu/partition/strategy.h"

#include <utility>

#include "tofu/util/logging.h"

namespace tofu {

StepContext::StepContext(const Graph& graph, std::vector<Shape> shapes, int ways)
    : graph_(&graph), shapes_(std::move(shapes)), ways_(ways) {
  TOFU_CHECK_GE(ways_, 2);
  TOFU_CHECK_EQ(static_cast<int>(shapes_.size()), graph.num_tensors());
  strategy_cache_.assign(static_cast<size_t>(graph.num_ops()), nullptr);
  cut_options_cache_.resize(static_cast<size_t>(graph.num_tensors()));
  cut_options_cached_.assign(static_cast<size_t>(graph.num_tensors()), 0);
}

std::int64_t StepContext::bytes(TensorId t) const {
  return NumElements(shape(t)) * graph_->tensor(t).elem_size;
}

const std::vector<ConcreteStrategy>& StepContext::Strategies(OpId op_id) {
  const std::vector<ConcreteStrategy>* cached = strategy_cache_[static_cast<size_t>(op_id)];
  if (cached != nullptr) {
    return *cached;
  }
  const OpNode& op = graph_->op(op_id);
  const OpSemantics& sem = graph_->SemanticsOf(op);
  // Ops with the same semantics and the same current shapes concretize identically;
  // share one list (unrolled timesteps otherwise redo this work per step per copy).
  const OpSemantics* sem_ptr = &sem;
  std::string key(reinterpret_cast<const char*>(&sem_ptr), sizeof(sem_ptr));
  auto append_shape = [&key](const Shape& s) {
    key.append(reinterpret_cast<const char*>(s.data()),
               s.size() * sizeof(std::int64_t));
    key.push_back('|');
  };
  for (TensorId t : op.inputs) {
    append_shape(shape(t));
  }
  append_shape(shape(op.output));
  std::unique_ptr<std::vector<ConcreteStrategy>>& shared = shared_strategies_[key];
  if (shared == nullptr) {
    std::vector<Shape> input_shapes;
    input_shapes.reserve(op.inputs.size());
    for (TensorId t : op.inputs) {
      input_shapes.push_back(shape(t));
    }
    const std::vector<std::int64_t> extents =
        BindVarExtents(sem.desc, input_shapes, shape(op.output));
    auto concrete = std::make_unique<std::vector<ConcreteStrategy>>();
    concrete->reserve(sem.strategies.size());
    for (const BasicStrategy& s : sem.strategies) {
      concrete->push_back(Concretize(s, extents));
    }
    shared = std::move(concrete);
  }
  strategy_cache_[static_cast<size_t>(op_id)] = shared.get();
  return *shared;
}

bool StepContext::Applicable(OpId op_id, int sidx) {
  if (sidx == kReplicatedExec) {
    return true;
  }
  const OpNode& op = graph_->op(op_id);
  const std::vector<ConcreteStrategy>& strategies = Strategies(op_id);
  const ConcreteStrategy& s = strategies[static_cast<size_t>(sidx)];
  if (s.var_extent < ways_) {
    return false;  // cannot split the partition variable `ways` ways
  }
  if (!s.is_reduction) {
    if (shape(op.output)[static_cast<size_t>(s.output_dim)] < ways_) {
      return false;
    }
  }
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    const ConcreteInputReq& req = s.inputs[i];
    if (req.kind == InputReq::Kind::kSplit &&
        shape(op.inputs[i])[static_cast<size_t>(req.dim)] < ways_) {
      return false;
    }
  }
  return true;
}

const std::vector<int>& StepContext::CutOptions(TensorId t) {
  if (cut_options_cached_[static_cast<size_t>(t)]) {
    return cut_options_cache_[static_cast<size_t>(t)];
  }
  const Shape& s = shape(t);
  std::vector<int> options;
  for (size_t d = 0; d < s.size(); ++d) {
    if (s[d] >= ways_) {
      options.push_back(static_cast<int>(d));
    }
  }
  // Replication is gated on the tensor's ORIGINAL size: substantial tensors stay
  // partitioned at every step (the 1/k-memory property), no matter how small their
  // shards have become; intrinsically small tensors (biases, scales) may replicate.
  if (options.empty() || graph_->tensor(t).bytes() <= kReplicateThresholdBytes) {
    options.push_back(kReplicated);
  }
  cut_options_cache_[static_cast<size_t>(t)] = std::move(options);
  cut_options_cached_[static_cast<size_t>(t)] = 1;
  return cut_options_cache_[static_cast<size_t>(t)];
}

double StepContext::OpInputCommBytes(OpId op_id, int sidx,
                                     const std::vector<int>& tensor_cut) {
  const OpNode& op = graph_->op(op_id);
  // Replicated execution: every worker runs the whole op, needing every input whole.
  const ConcreteStrategy* s =
      sidx == kReplicatedExec ? nullptr : &Strategies(op_id)[static_cast<size_t>(sidx)];
  double total = 0.0;
  for (size_t i = 0; i < op.inputs.size(); ++i) {
    const TensorId t = op.inputs[i];
    const ConcreteInputReq& req = s == nullptr ? kWholeInput : s->inputs[i];
    const std::int64_t extent =
        req.kind == InputReq::Kind::kSplit ? shape(t)[static_cast<size_t>(req.dim)] : 0;
    total += InputCommBytes(static_cast<double>(bytes(t)), ways_, req, extent,
                            tensor_cut[static_cast<size_t>(t)]);
  }
  return total;
}

double StepContext::OpOutputCommBytes(OpId op_id, int sidx,
                                      const std::vector<int>& tensor_cut) {
  if (sidx == kReplicatedExec) {
    // Each worker materializes the full output and keeps its stored share: free.
    return 0.0;
  }
  const TensorId out = graph_->op(op_id).output;
  return OutputCommBytes(static_cast<double>(bytes(out)), ways_,
                         Strategies(op_id)[static_cast<size_t>(sidx)],
                         tensor_cut[static_cast<size_t>(out)]);
}

double StepContext::OpCommBytes(OpId op_id, int sidx, const std::vector<int>& tensor_cut) {
  return OpInputCommBytes(op_id, sidx, tensor_cut) +
         OpOutputCommBytes(op_id, sidx, tensor_cut);
}

int StepContext::ForcedElementwiseStrategy(OpId op_id, const std::vector<int>& tensor_cut) {
  const OpNode& op = graph_->op(op_id);
  const int cut = tensor_cut[static_cast<size_t>(op.output)];
  if (cut == kReplicated) {
    return kReplicatedExec;
  }
  // Case-1 strategy along output variable `cut`; element-wise descriptions discover one
  // strategy per output dimension, in order.
  const std::vector<ConcreteStrategy>& strategies = Strategies(op_id);
  for (size_t i = 0; i < strategies.size(); ++i) {
    if (!strategies[i].is_reduction && strategies[i].output_dim == cut) {
      return static_cast<int>(i);
    }
  }
  return kReplicatedExec;
}

std::vector<Shape> StepContext::ApplyBasicPlan(const Graph& graph,
                                               const std::vector<Shape>& shapes,
                                               const BasicPlan& plan) {
  std::vector<Shape> out = shapes;
  for (TensorId t = 0; t < graph.num_tensors(); ++t) {
    const int cut = plan.tensor_cut[static_cast<size_t>(t)];
    if (cut != kReplicated) {
      std::int64_t& extent = out[static_cast<size_t>(t)][static_cast<size_t>(cut)];
      extent = (extent + plan.ways - 1) / plan.ways;
    }
  }
  return out;
}

std::vector<Shape> StepContext::InitialShapes(const Graph& graph) {
  std::vector<Shape> shapes;
  shapes.reserve(static_cast<size_t>(graph.num_tensors()));
  for (const TensorNode& t : graph.tensors()) {
    shapes.push_back(t.shape);
  }
  return shapes;
}

double AssignGreedyOpStrategies(StepContext* ctx, BasicPlan* plan,
                                bool allow_reduction_strategies) {
  const Graph& graph = ctx->graph();
  plan->op_strategy.assign(static_cast<size_t>(graph.num_ops()), kReplicatedExec);
  double total = 0.0;
  for (OpId op = 0; op < graph.num_ops(); ++op) {
    double best = ctx->OpCommBytes(op, kReplicatedExec, plan->tensor_cut);
    int choice = kReplicatedExec;
    const int n = static_cast<int>(ctx->Strategies(op).size());
    for (int sidx = 0; sidx < n; ++sidx) {
      if (!allow_reduction_strategies &&
          ctx->Strategies(op)[static_cast<size_t>(sidx)].is_reduction) {
        continue;
      }
      if (!ctx->Applicable(op, sidx)) {
        continue;
      }
      const double cost = ctx->OpCommBytes(op, sidx, plan->tensor_cut);
      if (cost < best) {
        best = cost;
        choice = sidx;
      }
    }
    plan->op_strategy[static_cast<size_t>(op)] = choice;
    total += best;
  }
  plan->comm_bytes = total;
  return total;
}

StepFold::StepFold(const Graph& graph, PartitionPlan* plan)
    : graph_(&graph), plan_(plan), shapes_(StepContext::InitialShapes(graph)) {}

void StepFold::Append(BasicPlan step, double link_bandwidth) {
  const double weighted = groups_ * step.comm_bytes;
  plan_->weighted_step_costs.push_back(weighted);
  plan_->total_comm_bytes += weighted;
  if (link_bandwidth > 0.0) {
    step.comm_seconds = step.comm_bytes / link_bandwidth;
    const double seconds = weighted / link_bandwidth;
    plan_->step_seconds.resize(plan_->steps.size(), 0.0);  // earlier steps had none
    plan_->step_seconds.push_back(seconds);
    plan_->estimated_comm_seconds += seconds;
  } else if (!plan_->step_seconds.empty()) {
    plan_->step_seconds.push_back(0.0);
  }
  shapes_ = StepContext::ApplyBasicPlan(*graph_, shapes_, step);
  groups_ *= static_cast<double>(step.ways);
  plan_->steps.push_back(std::move(step));
}

}  // namespace tofu
