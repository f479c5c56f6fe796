// Dataflow graph of fine-grained tensor operators -- the substrate Tofu partitions.
//
// Mirrors the MXNet/NNVM graphs the paper targets: single-output operators over dense
// tensors, with enough annotations for the partitioner's coarsening pass (§5.1):
// forward/backward links, gradient links, optimizer-update and gradient-aggregation
// markers, and unroll keys identifying the repeated timesteps of an RNN.
#ifndef TOFU_GRAPH_GRAPH_H_
#define TOFU_GRAPH_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "tofu/tdl/registry.h"

namespace tofu {

using TensorId = std::int32_t;
using OpId = std::int32_t;
inline constexpr TensorId kNoTensor = -1;
inline constexpr OpId kNoOp = -1;

struct TensorNode {
  TensorId id = kNoTensor;
  std::string name;
  Shape shape;
  int elem_size = 4;  // fp32 everywhere, as in the paper's experiments

  OpId producer = kNoOp;
  std::vector<OpId> consumers;

  // Gradient linkage: this tensor is the gradient of `grad_of` (kNoTensor otherwise).
  TensorId grad_of = kNoTensor;

  bool is_input = false;      // externally provided (data, labels, initial states)
  bool is_param = false;      // trainable weight
  bool is_opt_state = false;  // optimizer history buffer
  bool requires_grad = false;

  // Coalescing hints: tensors with the same non-empty unroll key across timesteps are
  // different instances of the same logical RNN tensor (§5.1, "merging unrolled
  // timesteps").
  std::string unroll_key;
  int timestep = -1;

  std::int64_t num_elements() const { return NumElements(shape); }
  std::int64_t bytes() const { return num_elements() * elem_size; }
  int rank() const { return static_cast<int>(shape.size()); }
};

struct OpNode {
  OpId id = kNoOp;
  std::string type;  // key into OpRegistry
  OpAttrs attrs;
  std::vector<TensorId> inputs;
  TensorId output = kNoTensor;

  // Grouping annotations (§5.1).
  OpId forward_op = kNoOp;  // for backward ops: the forward op they differentiate
  bool is_backward = false;
  bool is_update = false;    // optimizer update (element-wise, joins the weight's group)
  bool is_grad_agg = false;  // gradient-aggregation add (chain rule for multi-use tensors)

  // Output buffer aliases this input (in-place update / accumulation). -1 when none.
  int inplace_input = -1;

  std::string unroll_key;
  int timestep = -1;
};

// A mutable dataflow graph. Tensors and operators are stored densely and addressed by id;
// ids are stable (no deletion).
//
// The graph memoizes its GraphSignature: the first read computes it, later reads return
// the stored value. Every mutator -- AddInput/AddParam/AddOptState, AddOp, and the
// non-const tensor(id)/op(id) accessors -- clears the memo; op(id) also clears that
// op's memoized SemanticsOf. The memos cannot see writes made through a reference
// obtained BEFORE a read, so do not hold a mutable TensorNode&/OpNode& across a
// GraphSignature call (or anything that makes one: a Session::Partition, a search with
// a step-table cache): re-fetch it after the read.
class Graph {
 public:
  Graph() = default;

  // Non-copyable (graphs are large); movable. A moved-from graph is empty and usable.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  TensorId AddInput(const std::string& name, Shape shape);
  TensorId AddParam(const std::string& name, Shape shape);
  TensorId AddOptState(const std::string& name, Shape shape);

  // Adds an operator of registered `type`; the output tensor's shape is inferred through
  // the registry. Returns the output tensor id.
  TensorId AddOp(const std::string& type, OpAttrs attrs, std::vector<TensorId> inputs,
                 const std::string& name_hint = "");

  // Accessors.
  int num_tensors() const { return static_cast<int>(tensors_.size()); }
  int num_ops() const { return static_cast<int>(ops_.size()); }
  const TensorNode& tensor(TensorId id) const { return tensors_[static_cast<size_t>(id)]; }
  // Mutable access clears the signature memo (see the class comment).
  TensorNode& tensor(TensorId id) {
    signature_.Clear();
    return tensors_[static_cast<size_t>(id)];
  }
  const OpNode& op(OpId id) const { return ops_[static_cast<size_t>(id)]; }
  OpNode& op(OpId id) {
    signature_.Clear();
    semantics_cache_[static_cast<size_t>(id)].store(nullptr, std::memory_order_relaxed);
    return ops_[static_cast<size_t>(id)];
  }
  const std::vector<TensorNode>& tensors() const { return tensors_; }
  const std::vector<OpNode>& ops() const { return ops_; }

  std::vector<Shape> InputShapes(const OpNode& op) const;
  std::vector<int> InputRanks(const OpNode& op) const;

  // Cached TDL semantics (description + discovered strategies) for an op instance.
  // Resolved through the registry once per op (semantics depend only on the op's type,
  // attributes and input ranks) and memoized per op id -- the partition search asks for
  // these per step, on its hottest path. The non-const op(id) clears the op's memo, so
  // an op rewritten through it is resolved again. Safe to call
  // from concurrent readers of a fully built graph (the Session serving path searches
  // one shared graph from many threads); mutation (AddOp etc.) is not.
  const OpSemantics& SemanticsOf(const OpNode& op) const;
  // SemanticsOf(op(id)) if it has already been resolved, else null. A resolved op's
  // type is registered: the registry never drops a type.
  const OpSemantics* ResolvedSemantics(OpId id) const {
    return semantics_cache_[static_cast<size_t>(id)].load(std::memory_order_acquire);
  }

  // Aggregate statistics.
  std::int64_t TotalParamBytes() const;
  std::int64_t TotalOptStateBytes() const;
  std::vector<TensorId> ParamIds() const;

 private:
  friend std::uint64_t GraphSignature(const Graph& graph);

  // The memoized GraphSignature. kUnset means "not computed"; a graph whose signature
  // happens to equal kUnset stays unset and recomputes on every read (the value is
  // never altered to fit). An atomic so concurrent readers of a built graph race only
  // on idempotent stores of the same value. Moves carry the value and leave the source
  // unset.
  class SignatureMemo {
   public:
    static constexpr std::uint64_t kUnset = 0;
    SignatureMemo() = default;
    SignatureMemo(SignatureMemo&& other) noexcept : value_(other.value_.exchange(kUnset)) {}
    SignatureMemo& operator=(SignatureMemo&& other) noexcept {
      value_ = other.value_.exchange(kUnset);
      return *this;
    }
    std::uint64_t Load() const { return value_; }
    void Store(std::uint64_t v) const { value_ = v; }
    void Clear() { value_ = kUnset; }

   private:
    mutable std::atomic<std::uint64_t> value_{kUnset};
  };

  TensorId NewTensor(const std::string& name, Shape shape);

  std::vector<TensorNode> tensors_;
  std::vector<OpNode> ops_;
  // Registry semantics per op id, resolved lazily. One slot per op, appended by AddOp
  // (a deque so growth never relocates -- atomics are neither movable nor copyable);
  // each slot goes nullptr -> resolved at most once, so concurrent SemanticsOf readers
  // race only on idempotent stores of the same registry-owned pointer.
  mutable std::deque<std::atomic<const OpSemantics*>> semantics_cache_;
  SignatureMemo signature_;
};

// Persistent model state: weights, optimizer history, parameter gradients and graph
// inputs. Pre-allocated for the whole iteration, never owned by a simulated kernel, and
// never handed between pipeline stages.
bool IsModelState(const Graph& graph, const TensorNode& t);

// Structural validation: producer/consumer symmetry, shapes re-inferable through the
// registry, gradient links well-formed. Aborts on violation (used by tests and builders).
void ValidateGraph(const Graph& graph);

// Structural fingerprint of the graph: tensor shapes and roles, op types, attributes and
// connectivity, folded with FNV-1a. Deterministic across runs and processes (no pointer
// or hash-table ordering leaks in), so it can key persistent caches -- the Session plan
// cache of core/session.h keys on it together with the request fingerprint, and so
// does the DP's step-table cache. Computed once per built graph and memoized on it (see
// Graph's class comment for the contract); safe to call from concurrent readers.
std::uint64_t GraphSignature(const Graph& graph);

}  // namespace tofu

#endif  // TOFU_GRAPH_GRAPH_H_
