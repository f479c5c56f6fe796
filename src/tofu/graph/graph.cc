#include "tofu/graph/graph.h"

#include "tofu/util/hash.h"
#include "tofu/util/logging.h"

namespace tofu {

TensorId Graph::NewTensor(const std::string& name, Shape shape) {
  // Every mutator adds a tensor, so clearing the signature memo here covers them all.
  signature_.Clear();
  TensorNode node;
  node.id = static_cast<TensorId>(tensors_.size());
  node.name = name.empty() ? ("t" + std::to_string(node.id)) : name;
  node.shape = std::move(shape);
  tensors_.push_back(std::move(node));
  return tensors_.back().id;
}

TensorId Graph::AddInput(const std::string& name, Shape shape) {
  TensorId id = NewTensor(name, std::move(shape));
  tensors_[static_cast<size_t>(id)].is_input = true;
  return id;
}

TensorId Graph::AddParam(const std::string& name, Shape shape) {
  TensorId id = NewTensor(name, std::move(shape));
  TensorNode& t = tensors_[static_cast<size_t>(id)];
  t.is_param = true;
  t.requires_grad = true;
  return id;
}

TensorId Graph::AddOptState(const std::string& name, Shape shape) {
  TensorId id = NewTensor(name, std::move(shape));
  tensors_[static_cast<size_t>(id)].is_opt_state = true;
  return id;
}

TensorId Graph::AddOp(const std::string& type, OpAttrs attrs, std::vector<TensorId> inputs,
                      const std::string& name_hint) {
  OpRegistry& registry = OpRegistry::Get();
  TOFU_CHECK(registry.Has(type)) << "unregistered op type: " << type;

  std::vector<Shape> input_shapes;
  input_shapes.reserve(inputs.size());
  for (TensorId t : inputs) {
    TOFU_CHECK_GE(t, 0);
    TOFU_CHECK_LT(t, num_tensors());
    input_shapes.push_back(tensor(t).shape);
  }
  Shape out_shape = registry.InferShape(type, input_shapes, attrs);

  OpNode op;
  op.id = static_cast<OpId>(ops_.size());
  op.type = type;
  op.attrs = std::move(attrs);
  op.inputs = std::move(inputs);
  const std::string out_name =
      name_hint.empty() ? (type + "_" + std::to_string(op.id)) : name_hint;
  op.output = NewTensor(out_name, std::move(out_shape));
  tensors_[static_cast<size_t>(op.output)].producer = op.id;
  for (TensorId t : op.inputs) {
    tensors_[static_cast<size_t>(t)].consumers.push_back(op.id);
  }
  ops_.push_back(std::move(op));
  semantics_cache_.emplace_back(nullptr);
  return ops_.back().output;
}

std::vector<Shape> Graph::InputShapes(const OpNode& op) const {
  std::vector<Shape> shapes;
  shapes.reserve(op.inputs.size());
  for (TensorId t : op.inputs) {
    shapes.push_back(tensor(t).shape);
  }
  return shapes;
}

std::vector<int> Graph::InputRanks(const OpNode& op) const {
  std::vector<int> ranks;
  ranks.reserve(op.inputs.size());
  for (TensorId t : op.inputs) {
    ranks.push_back(tensor(t).rank());
  }
  return ranks;
}

const OpSemantics& Graph::SemanticsOf(const OpNode& op) const {
  // Lock-free memoization: the registry returns a stable pointer for identical
  // (type, attrs, ranks) keys, so two threads racing on an unresolved slot store the
  // same value -- no winner/loser, no lock on the search's hottest lookup.
  std::atomic<const OpSemantics*>& slot = semantics_cache_[static_cast<size_t>(op.id)];
  const OpSemantics* cached = slot.load(std::memory_order_acquire);
  if (cached == nullptr) {
    cached = &OpRegistry::Get().Semantics(op.type, op.attrs, InputRanks(op));
    slot.store(cached, std::memory_order_release);
  }
  return *cached;
}

std::int64_t Graph::TotalParamBytes() const {
  std::int64_t total = 0;
  for (const TensorNode& t : tensors_) {
    if (t.is_param) {
      total += t.bytes();
    }
  }
  return total;
}

std::int64_t Graph::TotalOptStateBytes() const {
  std::int64_t total = 0;
  for (const TensorNode& t : tensors_) {
    if (t.is_opt_state) {
      total += t.bytes();
    }
  }
  return total;
}

std::vector<TensorId> Graph::ParamIds() const {
  std::vector<TensorId> ids;
  for (const TensorNode& t : tensors_) {
    if (t.is_param) {
      ids.push_back(t.id);
    }
  }
  return ids;
}

bool IsModelState(const Graph& graph, const TensorNode& t) {
  if (t.is_param || t.is_opt_state || t.is_input) {
    return true;
  }
  return t.grad_of != kNoTensor && graph.tensor(t.grad_of).is_param;
}

namespace {

std::uint64_t ComputeGraphSignature(const Graph& graph) {
  std::uint64_t h = kFnvOffsetBasis;
  FnvMix(&h, static_cast<std::uint64_t>(graph.num_tensors()));
  FnvMix(&h, static_cast<std::uint64_t>(graph.num_ops()));
  for (const TensorNode& t : graph.tensors()) {
    FnvMix(&h, static_cast<std::uint64_t>(t.shape.size()));
    for (std::int64_t d : t.shape) {
      FnvMix(&h, static_cast<std::uint64_t>(d));
    }
    FnvMix(&h, static_cast<std::uint64_t>(t.elem_size));
    FnvMix(&h, static_cast<std::uint64_t>(t.producer));
    FnvMix(&h, static_cast<std::uint64_t>(t.grad_of));
    FnvMix(&h, static_cast<std::uint64_t>((t.is_input ? 1 : 0) | (t.is_param ? 2 : 0) |
                                          (t.is_opt_state ? 4 : 0) |
                                          (t.requires_grad ? 8 : 0)));
    FnvMixString(&h, t.unroll_key);
    FnvMix(&h, static_cast<std::uint64_t>(t.timestep));
  }
  for (const OpNode& op : graph.ops()) {
    FnvMixString(&h, op.type);
    FnvMixString(&h, op.attrs.Signature());
    FnvMix(&h, static_cast<std::uint64_t>(op.inputs.size()));
    for (TensorId t : op.inputs) {
      FnvMix(&h, static_cast<std::uint64_t>(t));
    }
    FnvMix(&h, static_cast<std::uint64_t>(op.output));
    FnvMix(&h, static_cast<std::uint64_t>(op.forward_op));
    FnvMix(&h, static_cast<std::uint64_t>((op.is_backward ? 1 : 0) | (op.is_update ? 2 : 0) |
                                          (op.is_grad_agg ? 4 : 0)));
    FnvMix(&h, static_cast<std::uint64_t>(op.inplace_input));
    FnvMixString(&h, op.unroll_key);
    FnvMix(&h, static_cast<std::uint64_t>(op.timestep));
  }
  return h;
}

}  // namespace

std::uint64_t GraphSignature(const Graph& graph) {
  std::uint64_t h = graph.signature_.Load();
  if (h == Graph::SignatureMemo::kUnset) {
    h = ComputeGraphSignature(graph);
    graph.signature_.Store(h);
  }
  return h;
}

}  // namespace tofu
