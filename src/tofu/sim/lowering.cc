#include "tofu/sim/lowering.h"

#include <algorithm>
#include <map>

#include "tofu/graph/traversal.h"
#include "tofu/util/logging.h"
#include "tofu/util/strings.h"

namespace tofu {

OpWork FullOpWork(const Graph& graph, const OpNode& op) {
  OpRegistry& registry = OpRegistry::Get();
  OpWork work;
  work.op_class = registry.Info(op.type).op_class;
  work.flops =
      registry.Flops(op.type, graph.InputShapes(op), graph.tensor(op.output).shape, op.attrs);
  work.bytes = static_cast<double>(graph.tensor(op.output).bytes());
  for (TensorId in : op.inputs) {
    work.bytes += static_cast<double>(graph.tensor(in).bytes());
  }
  return work;
}

double EfficiencyRows(const OpNode& op, const Shape& out_shape) {
  if (out_shape.empty()) {
    return 1.0;
  }
  if (out_shape.size() >= 3 &&
      OpRegistry::Get().Info(op.type).op_class == OpClass::kMatmul) {
    double rows = 1.0;
    for (size_t d = 0; d + 1 < out_shape.size(); ++d) {
      rows *= static_cast<double>(out_shape[d]);
    }
    return rows;
  }
  return static_cast<double>(out_shape[0]);
}

double ShardKernelSeconds(const GpuSpec& gpu, const OpWork& work, double work_fraction,
                          double rows) {
  return KernelSeconds(gpu, work.op_class, work.flops * work_fraction,
                       work.bytes * work_fraction, std::max(rows, 1.0));
}

SimGraph LowerPartitioned(const Graph& graph, const PartitionPlan& plan,
                          const ClusterSpec& cluster, double samples_per_iteration,
                          const LowerOptions& options) {
  const int k = std::max(1, plan.num_workers);
  const PlanCostBreakdown breakdown = plan.steps.empty()
                                          ? PlanCostBreakdown{std::vector<OpPlanCost>(
                                                static_cast<size_t>(graph.num_ops())),
                                                0.0}
                                          : ComputePlanCosts(graph, plan);
  const bool trivial = plan.steps.empty();

  SimGraph sim;
  sim.num_devices = k;
  sim.samples_per_iteration = samples_per_iteration;
  sim.resident_bytes.assign(static_cast<size_t>(k), 0.0);

  auto shard_bytes = [&](TensorId t) -> std::int64_t {
    return trivial ? graph.tensor(t).bytes() : plan.ShardBytes(graph, t);
  };
  for (const TensorNode& t : graph.tensors()) {
    if (IsModelState(graph, t)) {
      for (int w = 0; w < k; ++w) {
        sim.resident_bytes[static_cast<size_t>(w)] += static_cast<double>(shard_bytes(t.id));
      }
    }
  }

  // avail[op][w]: the node whose completion makes op's output shard usable on worker w.
  std::vector<std::vector<std::int32_t>> avail(
      static_cast<size_t>(graph.num_ops()), std::vector<std::int32_t>(static_cast<size_t>(k), -1));
  std::vector<std::int32_t> prev_compute(static_cast<size_t>(k), -1);
  // Bounded prefetch depth for delayed fetches (§6: fetches are held back so their
  // buffers do not sit allocated long before use, but still overlap nearby compute).
  constexpr int kPrefetchWindow = 8;
  std::vector<std::vector<std::int32_t>> recent_compute(static_cast<size_t>(k));

  for (OpId op_id : TopoOrder(graph)) {
    const OpNode& op = graph.op(op_id);
    const OpPlanCost& cost = breakdown.per_op[static_cast<size_t>(op_id)];
    const double fetch_per_worker = cost.fetch_bytes_total / k;
    const double reduce_per_worker = cost.reduce_bytes_total / k;
    const std::int64_t out_shard = shard_bytes(op.output);
    const bool out_resident = IsModelState(graph, graph.tensor(op.output));
    const bool inplace =
        op.inplace_input >= 0 && (!op.is_grad_agg || options.inplace_grad_agg);

    const Shape out_shape =
        trivial ? graph.tensor(op.output).shape : plan.ShardShape(graph, op.output);
    double kernel_s = ShardKernelSeconds(cluster.gpu, FullOpWork(graph, op),
                                         cost.work_fraction, EfficiencyRows(op, out_shape));
    if (op.is_grad_agg && !options.inplace_grad_agg) {
      kernel_s *= 2.0;  // extra read-modify-write pass without in-place accumulation
    }

    for (int w = 0; w < k; ++w) {
      // Producer availability on this worker / on all workers (remote reads).
      std::vector<std::int32_t> local_deps;
      std::vector<std::int32_t> remote_deps;
      for (TensorId in : op.inputs) {
        const OpId producer = graph.tensor(in).producer;
        if (producer == kNoOp) {
          continue;
        }
        local_deps.push_back(avail[static_cast<size_t>(producer)][static_cast<size_t>(w)]);
        for (int p = 0; p < k; ++p) {
          remote_deps.push_back(avail[static_cast<size_t>(producer)][static_cast<size_t>(p)]);
        }
      }

      std::vector<std::int32_t> compute_deps = local_deps;
      if (fetch_per_worker > 1.0) {
        auto fetch_deps = remote_deps;
        const auto& recent = recent_compute[static_cast<size_t>(w)];
        if (options.delay_fetch && static_cast<int>(recent.size()) >= kPrefetchWindow) {
          fetch_deps.push_back(recent[recent.size() - kPrefetchWindow]);
        }
        if (options.multifetch || k <= 2) {
          SimNode fetch;
          fetch.kind = SimNode::Kind::kP2P;
          fetch.device = w;
          fetch.comm_bytes = fetch_per_worker;
          fetch.output_bytes = static_cast<std::int64_t>(fetch_per_worker);
          fetch.deps = std::move(fetch_deps);
          fetch.tag = op.type + "/fetch";
          compute_deps.push_back(sim.Add(std::move(fetch)));
        } else {
          // Naive path: one transfer per peer, then an assembly (concat) kernel holding
          // both the pieces and the assembled buffer -- the §6 memory blow-up.
          std::vector<std::int32_t> pieces;
          for (int p = 0; p < k - 1; ++p) {
            SimNode piece;
            piece.kind = SimNode::Kind::kP2P;
            piece.device = w;
            piece.comm_bytes = fetch_per_worker / (k - 1);
            piece.output_bytes = static_cast<std::int64_t>(fetch_per_worker / (k - 1));
            piece.deps = fetch_deps;
            piece.tag = op.type + "/fetch_piece";
            pieces.push_back(sim.Add(std::move(piece)));
          }
          SimNode assemble;
          assemble.kind = SimNode::Kind::kCompute;
          assemble.device = w;
          assemble.duration_s = cluster.gpu.kernel_overhead_s +
                                fetch_per_worker / cluster.gpu.mem_bandwidth;
          assemble.output_bytes = static_cast<std::int64_t>(fetch_per_worker);
          assemble.deps = std::move(pieces);
          assemble.tag = op.type + "/assemble";
          compute_deps.push_back(sim.Add(std::move(assemble)));
        }
      }
      if (options.add_control_deps && prev_compute[static_cast<size_t>(w)] >= 0) {
        compute_deps.push_back(prev_compute[static_cast<size_t>(w)]);
      }

      SimNode compute;
      compute.kind = SimNode::Kind::kCompute;
      compute.device = w;
      compute.duration_s = kernel_s;
      compute.deps = std::move(compute_deps);
      compute.tag = op.type;
      // Partial-output inflation from case-2 steps is transient: the reduction collapses
      // it back to the stored shard.
      const double alloc_factor = cost.output_alloc_factor;
      if (!inplace && !out_resident) {
        compute.output_bytes = out_shard;
      }
      if (alloc_factor > 1.0) {
        compute.transient_bytes +=
            static_cast<std::int64_t>(static_cast<double>(out_shard) * (alloc_factor - 1.0));
      }
      const std::int32_t compute_id = sim.Add(std::move(compute));
      prev_compute[static_cast<size_t>(w)] = compute_id;
      recent_compute[static_cast<size_t>(w)].push_back(compute_id);

      std::int32_t avail_id = compute_id;
      if (reduce_per_worker > 1.0) {
        SimNode reduce;
        reduce.kind = SimNode::Kind::kP2P;
        reduce.device = w;
        reduce.comm_bytes = reduce_per_worker;
        reduce.deps = {compute_id};
        reduce.tag = op.type + "/reduce";
        avail_id = sim.Add(std::move(reduce));
      }
      avail[static_cast<size_t>(op_id)][static_cast<size_t>(w)] = avail_id;
    }

    // Reductions synchronize the group: consumers on any worker wait for every worker's
    // reduce share. Rewire avail to a barrier by making each reduce depend on all
    // computes; cheaper approximation: consumers depend on their own worker's reduce node,
    // which already depends on the local compute -- cross-worker arrival is captured by
    // the fetch dependencies of downstream consumers.
  }
  return sim;
}

SimGraph LowerPlacement(const Graph& graph, int num_devices,
                        const std::function<int(const OpNode&)>& device_of,
                        const ClusterSpec& cluster, double samples_per_iteration,
                        const LowerOptions& options) {
  SimGraph sim;
  sim.num_devices = num_devices;
  sim.samples_per_iteration = samples_per_iteration;
  sim.resident_bytes.assign(static_cast<size_t>(num_devices), 0.0);

  std::vector<int> device(static_cast<size_t>(graph.num_ops()), 0);
  for (const OpNode& op : graph.ops()) {
    int d = device_of(op);
    TOFU_CHECK_GE(d, 0);
    TOFU_CHECK_LT(d, num_devices);
    device[static_cast<size_t>(op.id)] = d;
  }
  for (const TensorNode& t : graph.tensors()) {
    if (IsModelState(graph, t)) {
      // Model state lives with the device of its first consumer (or producer).
      int d = 0;
      if (!t.consumers.empty()) {
        d = device[static_cast<size_t>(t.consumers[0])];
      } else if (t.producer != kNoOp) {
        d = device[static_cast<size_t>(t.producer)];
      }
      sim.resident_bytes[static_cast<size_t>(d)] += static_cast<double>(t.bytes());
    }
  }

  std::vector<std::int32_t> avail(static_cast<size_t>(graph.num_ops()), -1);
  // Cross-device transfers are deduplicated per (tensor, destination).
  std::map<std::pair<TensorId, int>, std::int32_t> transfers;

  for (OpId op_id : TopoOrder(graph)) {
    const OpNode& op = graph.op(op_id);
    const int dev = device[static_cast<size_t>(op_id)];
    const bool inplace =
        op.inplace_input >= 0 && (!op.is_grad_agg || options.inplace_grad_agg);

    std::vector<std::int32_t> deps;
    for (TensorId in : op.inputs) {
      const OpId producer = graph.tensor(in).producer;
      if (producer == kNoOp) {
        continue;
      }
      const int src = device[static_cast<size_t>(producer)];
      if (src == dev) {
        deps.push_back(avail[static_cast<size_t>(producer)]);
        continue;
      }
      auto key = std::make_pair(in, dev);
      auto it = transfers.find(key);
      if (it == transfers.end()) {
        SimNode copy;
        copy.kind = SimNode::Kind::kP2P;
        copy.device = dev;
        copy.comm_bytes = static_cast<double>(graph.tensor(in).bytes());
        copy.output_bytes = graph.tensor(in).bytes();
        copy.deps = {avail[static_cast<size_t>(producer)]};
        copy.tag = "xfer:" + graph.tensor(in).name;
        it = transfers.emplace(key, sim.Add(std::move(copy))).first;
      }
      deps.push_back(it->second);
    }

    double kernel_s = ShardKernelSeconds(cluster.gpu, FullOpWork(graph, op), 1.0,
                                         EfficiencyRows(op, graph.tensor(op.output).shape));
    if (op.is_grad_agg && !options.inplace_grad_agg) {
      kernel_s *= 2.0;
    }
    SimNode compute;
    compute.kind = SimNode::Kind::kCompute;
    compute.device = dev;
    compute.duration_s = kernel_s;
    compute.deps = std::move(deps);
    compute.tag = op.type;
    if (!inplace && !IsModelState(graph, graph.tensor(op.output))) {
      compute.output_bytes = graph.tensor(op.output).bytes();
    }
    avail[static_cast<size_t>(op_id)] = sim.Add(std::move(compute));
  }
  return sim;
}

}  // namespace tofu
