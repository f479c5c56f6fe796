// Ablation bench (DESIGN.md §7): the contribution of each design choice, measured on
// RNN-6-4K and WResNet-101-8 across 8 simulated GPUs.
//   * coarsening pieces (fw/bw grouping off, element-wise coalescing off, unroll merge
//     off) -- effect on search time and plan quality;
//   * §6 lowering optimizations (control deps, MultiFetch, delayed fetch) -- effect on
//     per-worker peak memory and iteration time;
//   * output-reduction strategies off (the ICML18 delta) -- effect on plan communication.
#include <chrono>
#include <cstdio>

#include "tofu/core/experiment.h"
#include "tofu/util/strings.h"

namespace tofu {
namespace {

using Clock = std::chrono::steady_clock;

void CoarsenAblation(const std::string& name, const ModelGraph& model) {
  std::printf("--- coarsening ablation: %s ---\n", name.c_str());
  struct Row {
    const char* label;
    CoarsenOptions options;
  };
  CoarsenOptions no_fwbw;
  no_fwbw.group_forward_backward = false;
  CoarsenOptions no_ew;
  no_ew.coalesce_elementwise = false;
  CoarsenOptions no_unroll;
  no_unroll.merge_unrolled_steps = false;
  CoarsenOptions tie;
  tie.tie_fw_bw_tensors = true;
  for (const Row& row : {Row{"full coarsening", {}}, Row{"no fw/bw grouping", no_fwbw},
                         Row{"no ew coalescing", no_ew}, Row{"no unroll merge", no_unroll},
                         Row{"tie fw/bw tensors", tie}}) {
    PartitionOptions options;
    options.coarsen = row.options;
    // Ablations that weaken coarsening can blow up the frontier; cap it tightly so the
    // capped search stays fast (the point is the warning + quality loss, not an
    // hour of search).
    options.dp.max_states = 1 << 14;
    auto t0 = Clock::now();
    PartitionPlan plan = RecursivePartition(model.graph, 8, options);
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    std::printf("  %-20s search %-9s comm %s/iter\n", row.label,
                HumanSeconds(secs).c_str(), HumanBytes(plan.total_comm_bytes).c_str());
    std::fflush(stdout);
  }
}

void LoweringAblation(const std::string& name, const ModelGraph& model,
                      const ClusterSpec& cluster) {
  std::printf("--- lowering (Sec.6) ablation: %s ---\n", name.c_str());
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  struct Row {
    const char* label;
    LowerOptions options;
  };
  LowerOptions no_ctrl;
  no_ctrl.add_control_deps = false;
  LowerOptions no_fuse;
  no_fuse.multifetch = false;
  LowerOptions no_delay;
  no_delay.delay_fetch = false;
  for (const Row& row : {Row{"all optimizations", {}}, Row{"no control deps", no_ctrl},
                         Row{"no MultiFetch", no_fuse}, Row{"no delayed fetch", no_delay}}) {
    ThroughputResult r = RunPlanThroughput(model, plan, cluster, row.options);
    std::printf("  %-20s iter %-9s peak %-10s %s\n", row.label,
                HumanSeconds(r.iter_seconds).c_str(), HumanBytes(r.peak_bytes).c_str(),
                r.oom ? "OOM" : "");
    std::fflush(stdout);
  }
}

void ReductionAblation(const std::string& name, const ModelGraph& model) {
  std::printf("--- output-reduction ablation: %s ---\n", name.c_str());
  PartitionPlan with = RecursivePartition(model.graph, 8);
  PartitionOptions no_reduction;
  no_reduction.dp.allow_reduction_strategies = false;
  PartitionPlan without = RecursivePartition(model.graph, 8, no_reduction);
  std::printf("  with reductions:      comm %s/iter\n",
              HumanBytes(with.total_comm_bytes).c_str());
  std::printf("  without (ICML18):     comm %s/iter (%.2fx)\n",
              HumanBytes(without.total_comm_bytes).c_str(),
              without.total_comm_bytes / std::max(1.0, with.total_comm_bytes));
}

}  // namespace
}  // namespace tofu

int main() {
  using namespace tofu;
  const ClusterSpec cluster = K80Cluster();
  std::printf("=== Ablations: design choices called out in DESIGN.md ===\n\n");
  {
    RnnConfig config;
    config.layers = 6;
    config.hidden = 4096;
    config.batch = 256;
    ModelGraph model = BuildRnn(config);
    CoarsenAblation("RNN-6-4K", model);
    LoweringAblation("RNN-6-4K", model, cluster);
    ReductionAblation("RNN-6-4K", model);
  }
  std::printf("\n");
  {
    WResNetConfig config;
    config.layers = 101;
    config.width = 8;
    config.batch = 16;
    ModelGraph model = BuildWResNet(config);
    CoarsenAblation("WResNet-101-8", model);
    LoweringAblation("WResNet-101-8", model, cluster);
    ReductionAblation("WResNet-101-8", model);
  }
  return 0;
}
