#include "tofu/sim/runtimes.h"

#include <algorithm>
#include <set>

#include "tofu/graph/traversal.h"
#include "tofu/util/logging.h"

namespace tofu {

ThroughputResult MeasureSim(const SimGraph& sim, const ClusterSpec& cluster,
                            bool unlimited_memory) {
  ThroughputResult out;
  SimOptions options;
  options.unlimited_memory = unlimited_memory;
  const SimResult full = RunSim(sim, cluster, options);
  options.zero_comm = true;
  const SimResult compute_only = RunSim(sim, cluster, options);

  out.oom = full.oom;
  out.iter_seconds = full.makespan_s;
  out.peak_bytes = full.max_peak_bytes;
  out.samples_per_second = full.samples_per_second;
  out.compute_seconds = compute_only.makespan_s;
  if (full.makespan_s > 0) {
    out.comm_fraction = std::max(0.0, 1.0 - compute_only.makespan_s / full.makespan_s);
  }
  return out;
}

ThroughputResult IdealThroughput(const ModelFactory& factory, std::int64_t batch,
                                 const ClusterSpec& cluster) {
  // Single GPU with infinite memory; throughput scaled by the GPU count (paper §7.1).
  ModelGraph model = factory(batch);
  PartitionPlan trivial;
  SimGraph sim = LowerPartitioned(model.graph, trivial, cluster,
                                  static_cast<double>(model.batch));
  ThroughputResult out = MeasureSim(sim, cluster, /*unlimited_memory=*/true);
  out.batch = batch;
  out.oom = false;
  out.samples_per_second *= cluster.num_gpus;
  return out;
}

ThroughputResult SmallBatchThroughput(const ModelFactory& factory, std::int64_t max_batch,
                                      const ClusterSpec& cluster) {
  ThroughputResult last;
  last.oom = true;
  for (std::int64_t batch = max_batch; batch >= 1; batch /= 2) {
    ModelGraph model = factory(batch);
    PartitionPlan trivial;
    SimGraph sim = LowerPartitioned(model.graph, trivial, cluster,
                                    static_cast<double>(model.batch));
    ThroughputResult r = MeasureSim(sim, cluster);
    if (!r.oom) {
      r.batch = batch;
      r.samples_per_second *= cluster.num_gpus;
      return r;
    }
    last = r;
    last.batch = batch;
  }
  last.samples_per_second = 0.0;
  return last;
}

ThroughputResult SwapThroughput(const ModelFactory& factory, std::int64_t batch,
                                const ClusterSpec& cluster) {
  // Closed-form swap model over the sequential schedule, combining the baselines the
  // paper assembled (§7.1): profile-guided eviction (offline Belady: evict the resident
  // buffer with the farthest next use), read-only buffers copied out once and dropped
  // thereafter, and prefetching that overlaps transfers with compute. Iteration time is
  // max(compute, swap traffic / per-replica host bandwidth); every replica shares the
  // 10 GB/s CPU link.
  ModelGraph model = factory(batch);
  const Graph& g = model.graph;
  ThroughputResult out;
  out.batch = batch;

  const double capacity = cluster.gpu.mem_capacity;
  const std::vector<OpId> order = TopoOrder(g);

  // Use lists: the tick of every touch of each tensor.
  const std::int64_t kNever = static_cast<std::int64_t>(1) << 60;
  std::vector<std::vector<std::int64_t>> uses(static_cast<size_t>(g.num_tensors()));
  std::int64_t tick = 0;
  for (OpId op_id : order) {
    const OpNode& op = g.op(op_id);
    ++tick;
    for (TensorId in : op.inputs) {
      uses[static_cast<size_t>(in)].push_back(tick);
    }
    uses[static_cast<size_t>(op.output)].push_back(tick);
  }

  struct Buffer {
    double bytes = 0.0;
    bool resident = false;
    bool copied_out = false;  // host holds a clean copy
    size_t next_use_index = 0;
  };
  std::vector<Buffer> buffers(static_cast<size_t>(g.num_tensors()));
  for (TensorId t = 0; t < g.num_tensors(); ++t) {
    buffers[static_cast<size_t>(t)].bytes = static_cast<double>(g.tensor(t).bytes());
  }
  auto next_use = [&](TensorId t) -> std::int64_t {
    const Buffer& b = buffers[static_cast<size_t>(t)];
    const auto& u = uses[static_cast<size_t>(t)];
    return b.next_use_index < u.size() ? u[b.next_use_index] : kNever;
  };

  // Belady pool keyed by (next_use, tensor); lazily invalidated entries are skipped.
  std::set<std::pair<std::int64_t, TensorId>> pool;
  double resident_bytes = 0.0;
  double swap_in = 0.0;
  double swap_out = 0.0;

  auto make_resident = [&](TensorId t, bool refetch) -> bool {
    Buffer& b = buffers[static_cast<size_t>(t)];
    if (b.resident) {
      return true;
    }
    while (resident_bytes + b.bytes > capacity) {
      // Farthest-next-use victim.
      auto it = pool.end();
      if (it == pool.begin()) {
        return false;  // nothing evictable: one op's working set exceeds capacity
      }
      --it;
      // Copy the entry out BEFORE erasing: erase frees the node `it` points at.
      const std::int64_t entry_use = it->first;
      const TensorId victim_id = it->second;
      pool.erase(it);
      Buffer& victim = buffers[static_cast<size_t>(victim_id)];
      if (!victim.resident || next_use(victim_id) != entry_use) {
        continue;  // stale entry
      }
      victim.resident = false;
      resident_bytes -= victim.bytes;
      if (!victim.copied_out && next_use(victim_id) != kNever) {
        swap_out += victim.bytes;  // dirty and needed again: write back
        victim.copied_out = true;
      }
    }
    if (refetch) {
      swap_in += b.bytes;
    }
    b.resident = true;
    resident_bytes += b.bytes;
    pool.insert({next_use(t), t});
    return true;
  };

  // Parameters, optimizer state and inputs start on the device (steady state), largest
  // first, until capacity; the rest live on the host.
  for (TensorId t = 0; t < g.num_tensors(); ++t) {
    const TensorNode& node = g.tensor(t);
    if (node.is_param || node.is_opt_state || node.is_input) {
      Buffer& b = buffers[static_cast<size_t>(t)];
      b.copied_out = true;  // host always has the initial copy
      if (resident_bytes + b.bytes <= capacity) {
        b.resident = true;
        resident_bytes += b.bytes;
        pool.insert({next_use(t), t});
      }
    }
  }

  auto advance_use = [&](TensorId t) {
    Buffer& b = buffers[static_cast<size_t>(t)];
    pool.erase({next_use(t), t});
    ++b.next_use_index;
    pool.insert({next_use(t), t});
  };

  double compute_s = 0.0;
  tick = 0;
  for (OpId op_id : order) {
    const OpNode& op = g.op(op_id);
    ++tick;
    bool ok = true;
    for (TensorId in : op.inputs) {
      const Buffer& b = buffers[static_cast<size_t>(in)];
      ok = ok && make_resident(in, /*refetch=*/!b.resident);
    }
    // Fresh outputs need no transfer; they are allocated on the device.
    const bool out_was_resident = buffers[static_cast<size_t>(op.output)].resident;
    const bool out_seen =
        buffers[static_cast<size_t>(op.output)].next_use_index > 0;
    ok = ok && make_resident(op.output, /*refetch=*/!out_was_resident && out_seen);
    if (!ok) {
      out.oom = true;
      return out;
    }
    buffers[static_cast<size_t>(op.output)].copied_out = false;  // dirtied
    for (TensorId in : op.inputs) {
      advance_use(in);
    }
    advance_use(op.output);

    // Whole-op kernels on one device, rows from the leading (batch) dimension.
    const Shape& shape = g.tensor(op.output).shape;
    const double rows = shape.empty() ? 1.0 : static_cast<double>(shape[0]);
    compute_s += ShardKernelSeconds(cluster.gpu, FullOpWork(g, op), 1.0, rows);
  }

  // Every replica swaps over the shared host link. Prefetching overlaps transfers with
  // compute, but not perfectly: scheduling hazards (a kernel cannot start before its
  // swapped-in operand lands) surface half of the shorter timeline.
  const double per_replica_bw = cluster.cpu_bandwidth / cluster.num_gpus;
  const double swap_s = (swap_in + swap_out) / per_replica_bw;
  out.iter_seconds = std::max(compute_s, swap_s) + 0.75 * std::min(compute_s, swap_s);
  out.compute_seconds = compute_s;
  out.comm_fraction = out.iter_seconds > 0 ? 1.0 - compute_s / out.iter_seconds : 0.0;
  out.samples_per_second =
      static_cast<double>(model.batch) / out.iter_seconds * cluster.num_gpus;
  out.peak_bytes = std::min(resident_bytes, capacity);
  return out;
}

std::function<int(const OpNode&)> RoundRobinPlacement(
    const Graph& graph, int num_devices, const std::function<int(const OpNode&)>& layer_of) {
  // Capture by value; resolve backward/update ops through their forward op.
  return [&graph, num_devices, layer_of](const OpNode& op) -> int {
    const OpNode* resolved = &op;
    if (op.forward_op != kNoOp) {
      resolved = &graph.op(op.forward_op);
    } else if (op.is_update) {
      // Updates run where the gradient was produced.
      for (TensorId in : op.inputs) {
        const OpId producer = graph.tensor(in).producer;
        if (producer != kNoOp) {
          const OpNode& p = graph.op(producer);
          resolved = p.forward_op != kNoOp ? &graph.op(p.forward_op) : &p;
          break;
        }
      }
    }
    const int layer = layer_of(*resolved);
    return layer < 0 ? num_devices - 1 : layer % num_devices;
  };
}

ThroughputResult PlacementThroughput(const ModelFactory& factory, std::int64_t max_batch,
                                     const ClusterSpec& cluster,
                                     const std::function<int(const OpNode&)>& layer_of,
                                     const LowerOptions& lower) {
  ThroughputResult last;
  last.oom = true;
  for (std::int64_t batch = max_batch; batch >= 1; batch /= 2) {
    ModelGraph model = factory(batch);
    auto device_of = RoundRobinPlacement(model.graph, cluster.num_gpus, layer_of);
    SimGraph sim = LowerPlacement(model.graph, cluster.num_gpus, device_of, cluster,
                                  static_cast<double>(model.batch), lower);
    ThroughputResult r = MeasureSim(sim, cluster);
    if (!r.oom) {
      r.batch = batch;
      return r;
    }
    last = r;
    last.batch = batch;
  }
  last.samples_per_second = 0.0;
  return last;
}

ThroughputResult RunPlanThroughput(const ModelGraph& model, const PartitionPlan& plan,
                                   const ClusterSpec& cluster, const LowerOptions& lower) {
  SimGraph sim = LowerPartitioned(model.graph, plan, cluster,
                                  static_cast<double>(model.batch), lower);
  ThroughputResult out = MeasureSim(sim, cluster);
  out.batch = model.batch;
  return out;
}

ThroughputResult TofuThroughput(const ModelFactory& factory, std::int64_t max_batch,
                                const ClusterSpec& cluster, const PartitionOptions& options,
                                const LowerOptions& lower) {
  ThroughputResult last;
  last.oom = true;
  for (std::int64_t batch = max_batch; batch >= 1; batch /= 2) {
    ModelGraph model = factory(batch);
    PartitionPlan plan = RecursivePartition(model.graph, cluster.num_gpus, options);
    ThroughputResult r = RunPlanThroughput(model, plan, cluster, lower);
    if (!r.oom) {
      r.batch = batch;
      return r;
    }
    last = r;
    last.batch = batch;
  }
  last.samples_per_second = 0.0;
  return last;
}

}  // namespace tofu
