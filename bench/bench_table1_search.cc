// Table 1 reproduction: partition search time for 8 workers.
//
//                      WResNet-152    RNN-10
//   Original DP [14]   n/a            n/a
//   DP w/ coarsening   8 hours        >24 hours
//   Using recursion    8.3 seconds    66.6 seconds
//
// We time our recursive search directly and run the flat ("DP with coarsening",
// multi-dimension joint enumeration) search under a wall-clock budget, projecting its
// completion time from the enumerated share -- the same blow-up the paper measured.
//
//   ./bench_table1_search                  # human-readable table
//   ./bench_table1_search --json out.json  # also emit machine-readable results
//                                          # (tools/check_perf.py gates CI on them)
//   ./bench_table1_search --memory-budget auto         # comm/memory frontier sweep
//   ./bench_table1_search --memory-budget 8589934592   # one budget (bytes, comma-list ok)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tofu/core/session.h"
#include "tofu/interconnect/interconnect.h"
#include "tofu/memory/repair.h"
#include "tofu/models/moe.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/flat_dp.h"
#include "tofu/partition/plan_io.h"
#include "tofu/partition/recursive.h"
#include "tofu/pipeline/pipeline_sim.h"
#include "tofu/pipeline/stage_cost.h"
#include "tofu/util/json.h"
#include "tofu/util/strings.h"

namespace tofu {
namespace {

using Clock = std::chrono::steady_clock;

// The comm-time/memory frontier: the same model partitioned under a descending ladder
// of per-worker budgets. Tightening the budget can only raise communication (the search
// gives up cheap-but-heavy placements), until no configuration fits at all.
void RunBudgetSweep(const std::string& name, const ModelGraph& model,
                    const std::vector<std::int64_t>& budgets) {
  Session session(DeviceTopology::Uniform(8));
  std::printf("--- %s: comm-time/memory frontier (8 workers) ---\n", name.c_str());
  std::printf("  %14s %14s %16s %12s %10s\n", "budget/worker", "peak/worker",
              "comm bytes/iter", "comm time", "pruned");
  for (std::int64_t budget : budgets) {
    PartitionRequest request;
    request.graph = &model.graph;
    request.memory_budget_bytes = budget;
    Result<PartitionResponse> response = session.Partition(request);
    if (!response.ok()) {
      std::printf("  %14s %s\n",
                  budget > 0 ? HumanBytes(static_cast<double>(budget)).c_str() : "none",
                  response.status().ToString().c_str());
      continue;
    }
    std::printf("  %14s %14s %16s %12s %10lld\n",
                budget > 0 ? HumanBytes(static_cast<double>(budget)).c_str() : "none",
                HumanBytes(static_cast<double>(response->peak_shard_bytes)).c_str(),
                HumanBytes(response->plan.total_comm_bytes).c_str(),
                HumanSeconds(response->estimated_comm_seconds).c_str(),
                static_cast<long long>(
                    response->plan.search_stats.memory_pruned_states));
  }
  std::printf("\n");
}

// The comm-time/peak-memory/recompute frontier (Session::MemoryFrontier): budgets
// descending from the unconstrained liveness peak to the floor no schedule can beat
// (MinAchievablePeakBytes), plus one genuinely infeasible row. Rows below the
// unconstrained peak fit only through the repair pass's swap/recompute schedule, so
// each also reports the schedule's analytic overhead and its event-sim replay.
// tools/check_perf.py gates the frontier's monotonicity (tighter budget => equal-or-
// higher offload overhead) and pins schedule_free_digest so the repair path cannot
// perturb unconstrained plans.
void RunFrontier(const std::string& name, const ModelGraph& model, JsonWriter* json) {
  Session session(DeviceTopology::FromCluster(K80Cluster()));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> unconstrained = session.Partition(request);
  if (!unconstrained.ok()) {
    std::printf("  %-24s %s\n", name.c_str(),
                unconstrained.status().ToString().c_str());
    return;
  }
  const std::int64_t peak = unconstrained->peak_shard_bytes;
  const std::int64_t floor =
      MinAchievablePeakBytes(model.graph, unconstrained->plan);
  std::vector<std::int64_t> budgets;
  for (int i = 0; i <= 4; ++i) {
    budgets.push_back(peak + 1 - ((peak + 1 - floor) * i) / 4);
  }
  budgets.push_back(floor / 2);  // below the floor: the frontier's infeasible edge
  Result<std::vector<FrontierPoint>> frontier =
      session.MemoryFrontier(request, budgets);
  if (!frontier.ok()) {
    std::printf("  %-24s %s\n", name.c_str(), frontier.status().ToString().c_str());
    return;
  }

  std::printf("  %s (%d ops; unconstrained peak %s, offload floor %s)\n", name.c_str(),
              model.graph.num_ops(), HumanBytes(static_cast<double>(peak)).c_str(),
              HumanBytes(static_cast<double>(floor)).c_str());
  std::printf("    %14s %14s %12s %14s %14s\n", "budget/worker", "peak/worker",
              "comm time", "overhead", "overhead(sim)");
  for (const FrontierPoint& point : *frontier) {
    if (!point.feasible) {
      std::printf("    %14s infeasible (below the full-offload floor)\n",
                  HumanBytes(static_cast<double>(point.budget_bytes)).c_str());
      continue;
    }
    std::printf("    %14s %14s %12s %14s %14s\n",
                HumanBytes(static_cast<double>(point.budget_bytes)).c_str(),
                HumanBytes(static_cast<double>(point.peak_shard_bytes)).c_str(),
                HumanSeconds(point.comm_seconds).c_str(),
                HumanSeconds(point.memory_overhead_seconds).c_str(),
                HumanSeconds(point.simulated_memory_seconds).c_str());
  }

  if (json != nullptr) {
    json->BeginObject();
    json->Key("model").String(name + "@frontier");
    json->Key("num_ops").Int(model.graph.num_ops());
    json->Key("num_tensors").Int(model.graph.num_tensors());
    json->Key("workers").Int(8);
    json->Key("unconstrained_peak_bytes").Int(peak);
    json->Key("min_achievable_peak_bytes").Int(floor);
    json->Key("schedule_free_digest").String(PlanDigest(unconstrained->plan));
    json->Key("frontier").BeginArray();
    for (const FrontierPoint& point : *frontier) {
      json->BeginObject();
      json->Key("budget_bytes").Int(point.budget_bytes);
      json->Key("feasible").Bool(point.feasible);
      json->Key("peak_shard_bytes").Int(point.peak_shard_bytes);
      json->Key("comm_seconds").Number(point.comm_seconds);
      json->Key("memory_overhead_seconds").Number(point.memory_overhead_seconds);
      json->Key("simulated_memory_seconds").Number(point.simulated_memory_seconds);
      json->Key("swap_bytes").Number(point.swap_bytes);
      json->Key("recompute_seconds").Number(point.recompute_seconds);
      json->EndObject();
    }
    json->EndArray();
    json->EndObject();
  }
}

// "auto" derives a ladder from the unconstrained footprint: the all-resident sum down
// to fractions of it, ending in one that cannot fit (the error row of the frontier).
std::vector<std::int64_t> AutoBudgets(const ModelGraph& model) {
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> response = session.Partition(request);
  std::vector<std::int64_t> budgets = {0};
  if (!response.ok()) {
    return budgets;
  }
  for (double fraction : {1.0, 0.75, 0.5, 0.25, 0.05}) {
    budgets.push_back(static_cast<std::int64_t>(
        static_cast<double>(response->all_resident_bytes) * fraction));
  }
  return budgets;
}

void Run(const std::string& name, ModelGraph model, JsonWriter* json) {
  std::printf("--- %s (%d ops, %d tensors) ---\n", name.c_str(), model.graph.num_ops(),
              model.graph.num_tensors());

  auto t0 = Clock::now();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  const double recursive_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("  using recursion:      %-10s (plan comm %s/iter)\n",
              HumanSeconds(recursive_s).c_str(), HumanBytes(plan.total_comm_bytes).c_str());
  std::printf("  engine stats:         %lld cost evaluations, peak frontier %lld states, "
              "%lld table cells%s\n",
              static_cast<long long>(plan.search_stats.states_explored),
              static_cast<long long>(plan.search_stats.max_frontier_states),
              static_cast<long long>(plan.search_stats.cost_table_entries),
              plan.search_stats.exact ? "" : " (over the state cap)");

  CoarseGraph coarse = Coarsen(model.graph);
  FlatDpOptions options;
  options.num_workers = 8;
  options.time_budget_seconds = 5.0;
  FlatDpResult flat = RunFlatDp(model.graph, coarse, options);
  if (flat.completed) {
    std::printf("  DP with coarsening:   %-10s (completed; %.3g configurations)\n",
                HumanSeconds(flat.elapsed_seconds).c_str(), flat.configs_total);
  } else {
    std::printf(
        "  DP with coarsening:   ~%-9s (projected from %.3g of %.3g joint "
        "configurations in %s)\n",
        HumanSeconds(flat.projected_seconds).c_str(), flat.configs_evaluated,
        flat.configs_total, HumanSeconds(flat.elapsed_seconds).c_str());
  }
  std::printf("  original DP [14]:     n/a (layer-graph DP is inapplicable to %d operators)\n",
              model.graph.num_ops());
  std::printf("  speedup (recursion vs flat): %.0fx\n\n",
              (flat.completed ? flat.elapsed_seconds : flat.projected_seconds) /
                  std::max(recursive_s, 1e-9));

  // Serving-path check the CI perf gate asserts on: a repeated identical request must
  // hit the session's plan cache, and the cached plan must be byte-identical (in its
  // JSON serialization) to what a fresh session searches from scratch.
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> first = session.Partition(request);
  Result<PartitionResponse> second = session.Partition(request);
  Session fresh_session(DeviceTopology::Uniform(8));
  Result<PartitionResponse> fresh = fresh_session.Partition(request);
  const bool cache_hit = first.ok() && second.ok() && !first->from_cache &&
                         second->from_cache && session.cache_stats().hits == 1;
  // Byte-identical up to search wall time, the one nondeterministic plan field.
  auto comparable = [](PartitionPlan plan) {
    plan.search_stats.wall_seconds = 0.0;
    return PlanToJson(plan);
  };
  const bool identical =
      second.ok() && fresh.ok() && comparable(second->plan) == comparable(fresh->plan);
  std::printf("  session plan cache:   repeat %s, cached == fresh plan: %s\n\n",
              cache_hit ? "hit" : "MISSED", identical ? "byte-identical" : "DIVERGED");

  if (json != nullptr) {
    json->BeginObject();
    json->Key("model").String(name);
    json->Key("num_ops").Int(model.graph.num_ops());
    json->Key("num_tensors").Int(model.graph.num_tensors());
    json->Key("recursive_seconds").Number(recursive_s);
    json->Key("recursive_comm_bytes").Number(plan.total_comm_bytes);
    json->Key("states_explored").Int(plan.search_stats.states_explored);
    json->Key("max_frontier_states").Int(plan.search_stats.max_frontier_states);
    json->Key("cost_table_entries").Int(plan.search_stats.cost_table_entries);
    json->Key("pruned_table_cells").Int(plan.search_stats.pruned_table_cells);
    json->Key("exact").Bool(plan.search_stats.exact);
    json->Key("flat_completed").Bool(flat.completed);
    json->Key("flat_elapsed_seconds").Number(flat.elapsed_seconds);
    json->Key("flat_projected_seconds")
        .Number(flat.completed ? flat.elapsed_seconds : flat.projected_seconds);
    json->Key("flat_configs_evaluated").Number(flat.configs_evaluated);
    json->Key("flat_configs_total").Number(flat.configs_total);
    json->Key("session_cache_hit").Bool(cache_hit);
    json->Key("cached_plan_identical").Bool(identical);
    json->Key("plan_digest").String(PlanDigest(plan));
    json->EndObject();
  }
}

// One big-graph, many-worker row: the same recursive search at worker counts far past
// the paper's 8-GPU testbed, where per-step option counts (and so frontier width and
// table sizes) grow with the factorization of the worker count. These rows exercise the
// dense-lattice engine path (docs/search.md): wall time is best-of-3 (the same
// methodology as the pre-PR numbers recorded as pre_pr_recursive_seconds in
// bench/baseline_table1.json, which tools/check_perf.py --min-speedup gates against),
// while every correctness field -- comm bytes, effort counters, plan digest, serving
// flags -- is gated exactly like the 8-worker rows.
void RunManyWorkers(const std::string& name, const ModelGraph& model, int workers,
                    JsonWriter* json) {
  double recursive_s = 1e99;
  PartitionPlan plan;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto t0 = Clock::now();
    PartitionPlan attempt = RecursivePartition(model.graph, workers);
    recursive_s =
        std::min(recursive_s, std::chrono::duration<double>(Clock::now() - t0).count());
    plan = std::move(attempt);
  }

  // Serving-path flags at this worker count (same contract as Run above).
  Session session(DeviceTopology::Uniform(workers));
  PartitionRequest request;
  request.graph = &model.graph;
  Result<PartitionResponse> first = session.Partition(request);
  Result<PartitionResponse> second = session.Partition(request);
  Session fresh_session(DeviceTopology::Uniform(workers));
  Result<PartitionResponse> fresh = fresh_session.Partition(request);
  const bool cache_hit = first.ok() && second.ok() && !first->from_cache &&
                         second->from_cache && session.cache_stats().hits == 1;
  const bool identical = second.ok() && fresh.ok() &&
                         PlanDigest(second->plan) == PlanDigest(fresh->plan);

  const SearchStats& stats = plan.search_stats;
  std::printf("  %-18s w=%-4d %-10s comm %s/iter, %lld evals, %lld dominated-pruned, "
              "cache %s/%s\n",
              name.c_str(), workers, HumanSeconds(recursive_s).c_str(),
              HumanBytes(plan.total_comm_bytes).c_str(),
              static_cast<long long>(stats.states_explored),
              static_cast<long long>(stats.dominated_pruned_states),
              cache_hit ? "hit" : "MISSED", identical ? "identical" : "DIVERGED");
  if (json != nullptr) {
    json->BeginObject();
    json->Key("model").String(name + "@w" + std::to_string(workers));
    json->Key("num_ops").Int(model.graph.num_ops());
    json->Key("num_tensors").Int(model.graph.num_tensors());
    json->Key("workers").Int(workers);
    json->Key("recursive_seconds").Number(recursive_s);
    json->Key("recursive_comm_bytes").Number(plan.total_comm_bytes);
    json->Key("states_explored").Int(stats.states_explored);
    json->Key("max_frontier_states").Int(stats.max_frontier_states);
    json->Key("cost_table_entries").Int(stats.cost_table_entries);
    json->Key("dominated_pruned_states").Int(stats.dominated_pruned_states);
    json->Key("pruned_table_cells").Int(stats.pruned_table_cells);
    json->Key("exact").Bool(stats.exact);
    json->Key("session_cache_hit").Bool(cache_hit);
    json->Key("cached_plan_identical").Bool(identical);
    json->Key("plan_digest").String(PlanDigest(plan));
    json->EndObject();
  }
}

// One non-uniform-topology row: the same model searched through a Session whose
// DeviceTopology carries a concrete interconnect, so the per-step bandwidths are the
// contention-aware effective figures and the plan's simulated critical-path time is
// reported. Emits the same gate fields as the uniform rows (wall time, deterministic
// effort counters, comm bytes, plan digest, serving-path flags), so
// tools/check_perf.py gates the search in the non-uniform regime identically.
void RunTopology(const std::string& name, const ModelGraph& model,
                 std::shared_ptr<const Interconnect> net, JsonWriter* json) {
  Session session(DeviceTopology::WithInterconnect(net));
  PartitionRequest request;
  request.graph = &model.graph;

  const auto t0 = Clock::now();
  Result<PartitionResponse> first = session.Partition(request);
  const double recursive_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!first.ok()) {
    std::printf("  %-24s %s\n", name.c_str(), first.status().ToString().c_str());
    return;
  }
  Result<PartitionResponse> second = session.Partition(request);
  Session fresh_session(DeviceTopology::WithInterconnect(net));
  Result<PartitionResponse> fresh = fresh_session.Partition(request);
  const bool cache_hit = second.ok() && !first->from_cache && second->from_cache &&
                         session.cache_stats().hits == 1;
  const bool identical =
      second.ok() && fresh.ok() && PlanDigest(second->plan) == PlanDigest(fresh->plan);

  const PartitionPlan& plan = first->plan;
  std::printf("  %-24s %-10s comm %s/iter, est %s, sim %s, cache %s/%s\n", name.c_str(),
              HumanSeconds(recursive_s).c_str(),
              HumanBytes(plan.total_comm_bytes).c_str(),
              HumanSeconds(first->estimated_comm_seconds).c_str(),
              HumanSeconds(first->simulated_comm_seconds).c_str(),
              cache_hit ? "hit" : "MISSED", identical ? "identical" : "DIVERGED");
  if (json != nullptr) {
    json->BeginObject();
    json->Key("model").String(name);
    json->Key("num_ops").Int(model.graph.num_ops());
    json->Key("num_tensors").Int(model.graph.num_tensors());
    json->Key("recursive_seconds").Number(recursive_s);
    json->Key("recursive_comm_bytes").Number(plan.total_comm_bytes);
    json->Key("states_explored").Int(plan.search_stats.states_explored);
    json->Key("max_frontier_states").Int(plan.search_stats.max_frontier_states);
    json->Key("cost_table_entries").Int(plan.search_stats.cost_table_entries);
    json->Key("pruned_table_cells").Int(plan.search_stats.pruned_table_cells);
    json->Key("exact").Bool(plan.search_stats.exact);
    json->Key("estimated_comm_seconds").Number(first->estimated_comm_seconds);
    json->Key("simulated_comm_seconds").Number(first->simulated_comm_seconds);
    json->Key("session_cache_hit").Bool(cache_hit);
    json->Key("cached_plan_identical").Bool(identical);
    json->Key("plan_digest").String(PlanDigest(plan));
    json->EndObject();
  }
}

// One hybrid-parallelism row: pure Tofu, the pipeline x Tofu hybrid (pipeline/
// compose.h), and DataParallel planned for the same multi-node hierarchy -- 8-GPU
// nodes with 21 GB/s PCIe p2p inside, joined through one oversubscribed 2.5 GB/s
// cross-node uplink per node (Ethernet-class, the regime where splitting every
// operator across all workers stops scaling). All three are compared on estimated
// total iteration time: analytic full-batch compute at 1/W (the same figure
// HybridPartition's degenerate candidate uses) plus each plan's estimated
// communication; for a multi-stage hybrid the total is the analytic 1F1B makespan,
// which already folds compute, boundary transfers, and the fill/drain bubble
// together. tools/check_perf.py gates the ordering (hybrid <= pure <= the gap to
// DataParallel closing) and the pipeline differential contract (analytic makespan
// <= 1F1B event simulation <= 2x analytic).
void RunHybrid(const std::string& name, const ModelGraph& model, int workers,
               JsonWriter* json) {
  const int nodes = workers / 8;
  std::shared_ptr<const Interconnect> net = MakeHierarchy(nodes, 8, 21e9, 2.5e9, 15e-6);
  Session session(DeviceTopology::WithInterconnect(net));
  PartitionRequest request;
  request.graph = &model.graph;
  request.algorithm = PartitionAlgorithm::kHybrid;

  const auto t0 = Clock::now();
  Result<PartitionResponse> hybrid = session.Partition(request);
  const double hybrid_search_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!hybrid.ok()) {
    std::printf("  %-24s %s\n", name.c_str(), hybrid.status().ToString().c_str());
    return;
  }
  // Serving-path contract at the hybrid algorithm (same as every other row).
  Result<PartitionResponse> second = session.Partition(request);
  Session fresh_session(DeviceTopology::WithInterconnect(net));
  Result<PartitionResponse> fresh = fresh_session.Partition(request);
  const bool cache_hit = second.ok() && !hybrid->from_cache && second->from_cache &&
                         session.cache_stats().hits == 1;
  const bool identical = second.ok() && fresh.ok() &&
                         PlanDigest(second->plan) == PlanDigest(fresh->plan);

  PartitionRequest pure_request = request;
  pure_request.algorithm = PartitionAlgorithm::kTofu;
  Result<PartitionResponse> pure = session.Partition(pure_request);
  PartitionRequest dp_request = request;
  dp_request.algorithm = PartitionAlgorithm::kDataParallel;
  Result<PartitionResponse> dp = session.Partition(dp_request);
  if (!pure.ok() || !dp.ok()) {
    std::printf("  %-24s baseline algorithms failed\n", name.c_str());
    return;
  }

  // Analytic full-batch compute with every op split W ways -- what the S = 1
  // candidate inside HybridPartition prices, so pure_total matches its total exactly.
  const CoarseGraph coarse = Coarsen(model.graph);
  const StageCostModel cost(model.graph, coarse, K80Cluster());
  std::vector<double> fwd;
  std::vector<double> bwd;
  cost.PerGroupPassSeconds(workers, 1, &fwd, &bwd);
  double compute = 0.0;
  for (size_t g = 0; g < fwd.size(); ++g) {
    compute += fwd[g] + bwd[g];
  }

  const PipelinePlan* pipe = hybrid->plan.pipeline.get();
  const double hybrid_total = pipe != nullptr
                                  ? pipe->pipeline_seconds
                                  : compute + hybrid->estimated_comm_seconds;
  const double pure_total = compute + pure->estimated_comm_seconds;
  const double dp_total = compute + dp->estimated_comm_seconds;
  const double sim_1f1b = pipe != nullptr ? Simulate1F1BSeconds(*pipe) : 0.0;

  std::printf("  %-18s w=%-4d hybrid %s (S=%d, M=%d, sim %s) vs pure %s vs DP %s, "
              "cache %s/%s\n",
              name.c_str(), workers, HumanSeconds(hybrid_total).c_str(),
              pipe != nullptr ? pipe->num_stages : 1,
              pipe != nullptr ? pipe->micro_batches : 1,
              pipe != nullptr ? HumanSeconds(sim_1f1b).c_str() : "n/a",
              HumanSeconds(pure_total).c_str(), HumanSeconds(dp_total).c_str(),
              cache_hit ? "hit" : "MISSED", identical ? "identical" : "DIVERGED");
  if (json != nullptr) {
    const SearchStats& stats = hybrid->plan.search_stats;
    json->BeginObject();
    json->Key("model").String(name + "@hybrid-w" + std::to_string(workers));
    json->Key("num_ops").Int(model.graph.num_ops());
    json->Key("num_tensors").Int(model.graph.num_tensors());
    json->Key("workers").Int(workers);
    json->Key("nodes").Int(nodes);
    json->Key("recursive_seconds").Number(hybrid_search_s);
    json->Key("recursive_comm_bytes").Number(hybrid->plan.total_comm_bytes);
    json->Key("states_explored").Int(stats.states_explored);
    json->Key("max_frontier_states").Int(stats.max_frontier_states);
    json->Key("cost_table_entries").Int(stats.cost_table_entries);
    json->Key("dominated_pruned_states").Int(stats.dominated_pruned_states);
    json->Key("pruned_table_cells").Int(stats.pruned_table_cells);
    json->Key("exact").Bool(stats.exact);
    json->Key("pipeline_stages").Int(pipe != nullptr ? pipe->num_stages : 1);
    json->Key("micro_batches").Int(pipe != nullptr ? pipe->micro_batches : 1);
    json->Key("pipeline_seconds").Number(pipe != nullptr ? pipe->pipeline_seconds : 0.0);
    json->Key("pipeline_sim_seconds").Number(sim_1f1b);
    json->Key("compute_seconds").Number(compute);
    json->Key("hybrid_total_seconds").Number(hybrid_total);
    json->Key("pure_total_seconds").Number(pure_total);
    json->Key("dp_total_seconds").Number(dp_total);
    json->Key("hybrid_comm_seconds").Number(hybrid->estimated_comm_seconds);
    json->Key("pure_comm_seconds").Number(pure->estimated_comm_seconds);
    json->Key("dp_comm_seconds").Number(dp->estimated_comm_seconds);
    json->Key("session_cache_hit").Bool(cache_hit);
    json->Key("cached_plan_identical").Bool(identical);
    json->Key("plan_digest").String(PlanDigest(hybrid->plan));
    json->EndObject();
  }
}

// The non-uniform regime rows: the paper-testbed 21 GB/s links arranged as a ring, a
// port-limited full mesh, and a 2x4 hierarchy whose shared uplinks run at the 10 GB/s
// host-link speed (oversubscribed 4 leaf links -> 1 uplink, matching K80Cluster's
// cpu_bandwidth).
void RunTopologies(const std::string& model_name, const ModelGraph& model,
                   JsonWriter* json) {
  const double kLat = 15e-6;
  RunTopology(model_name + "@ring8", model, MakeRing(8, 21e9, kLat), json);
  RunTopology(model_name + "@fullmesh8", model, MakeFullMesh(8, 21e9, kLat), json);
  RunTopology(model_name + "@hier2x4", model, MakeHierarchy(2, 4, 21e9, 10e9, kLat),
              json);
}

}  // namespace
}  // namespace tofu

int main(int argc, char** argv) {
  std::string json_path;
  std::string budget_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--memory-budget") == 0 && i + 1 < argc) {
      budget_spec = argv[++i];  // "auto" or comma-separated per-worker byte counts
    }
  }
  std::vector<std::int64_t> budgets;
  const bool sweep_auto = budget_spec == "auto";
  if (!budget_spec.empty() && !sweep_auto) {
    for (const std::string& token : tofu::Split(budget_spec, ',')) {
      budgets.push_back(std::strtoll(token.c_str(), nullptr, 10));
    }
  }

  std::printf("=== Table 1: time to search for the best partition (8 workers) ===\n");
  std::printf("paper: WResNet-152 8h flat / 8.3s recursive; RNN-10 >24h flat / 66.6s "
              "recursive\n\n");

  tofu::JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("table1_search");
  json.Key("workers").Int(8);
  json.Key("results").BeginArray();
  tofu::JsonWriter* json_ptr = json_path.empty() ? nullptr : &json;

  {
    tofu::WResNetConfig config;
    config.layers = 152;
    config.width = 10;
    config.batch = 8;
    tofu::Run("WResNet-152-10", tofu::BuildWResNet(config), json_ptr);
    if (sweep_auto || !budgets.empty()) {
      tofu::ModelGraph model = tofu::BuildWResNet(config);
      tofu::RunBudgetSweep("WResNet-152-10", model,
                           sweep_auto ? tofu::AutoBudgets(model) : budgets);
    }
  }
  {
    tofu::RnnConfig config;
    config.layers = 10;
    config.hidden = 8192;
    config.batch = 128;
    tofu::Run("RNN-10-8K", tofu::BuildRnn(config), json_ptr);
    if (sweep_auto || !budgets.empty()) {
      tofu::ModelGraph model = tofu::BuildRnn(config);
      tofu::RunBudgetSweep("RNN-10-8K", model,
                           sweep_auto ? tofu::AutoBudgets(model) : budgets);
    }
  }

  std::printf("=== Big-graph, many-worker search (dense-lattice engine path) ===\n");
  {
    tofu::WResNetConfig config;
    config.layers = 152;
    config.width = 10;
    config.batch = 8;
    const tofu::ModelGraph wresnet = tofu::BuildWResNet(config);
    tofu::RunManyWorkers("WResNet-152-10", wresnet, 32, json_ptr);
    tofu::RunManyWorkers("WResNet-152-10", wresnet, 64, json_ptr);
    tofu::RunManyWorkers("WResNet-152-10", wresnet, 128, json_ptr);
  }
  {
    tofu::TransformerConfig config;
    config.layers = 48;
    const tofu::ModelGraph transformer = tofu::BuildTransformer(config);
    tofu::RunManyWorkers("Transformer-48", transformer, 64, json_ptr);
  }
  std::printf("\n");

  std::printf("=== Hybrid pipeline x Tofu vs pure Tofu vs DataParallel "
              "(8-GPU nodes, 2.5 GB/s cross-node uplinks) ===\n");
  {
    tofu::TransformerConfig t_config;
    t_config.layers = 48;
    const tofu::ModelGraph transformer = tofu::BuildTransformer(t_config);
    tofu::WResNetConfig w_config;
    w_config.layers = 152;
    w_config.width = 10;
    w_config.batch = 8;
    const tofu::ModelGraph wresnet = tofu::BuildWResNet(w_config);
    for (int workers : {16, 32, 64}) {
      tofu::RunHybrid("Transformer-48", transformer, workers, json_ptr);
    }
    for (int workers : {16, 32, 64}) {
      tofu::RunHybrid("WResNet-152-10", wresnet, workers, json_ptr);
    }
  }
  std::printf("\n");

  std::printf("=== Memory planner frontier (swap/recompute repair, 8 workers) ===\n");
  {
    // MoE-style wide-layer model: four dense experts whose batch x 4096 hidden
    // activations dominate the footprint -- the recompute-friendly regime.
    tofu::MoeConfig moe;
    tofu::RunFrontier("MoE-4x4096", tofu::BuildMoe(moe), json_ptr);
  }
  {
    // Conv workload with halo exchange: spatially heavy (448x448, batch 4), so
    // spatial splits trade halo traffic against per-worker activation memory.
    tofu::WResNetConfig config;
    config.layers = 50;
    config.width = 4;
    config.batch = 4;
    config.image = 448;
    tofu::RunFrontier("WResNet-50-halo", tofu::BuildWResNet(config), json_ptr);
  }
  std::printf("\n");

  std::printf("=== Non-uniform interconnects (contention-aware search) ===\n");
  {
    tofu::WResNetConfig config;
    config.layers = 152;
    config.width = 10;
    config.batch = 8;
    const tofu::ModelGraph model = tofu::BuildWResNet(config);
    tofu::RunTopologies("WResNet-152-10", model, json_ptr);
  }
  {
    tofu::RnnConfig config;
    config.layers = 10;
    config.hidden = 8192;
    config.batch = 128;
    const tofu::ModelGraph model = tofu::BuildRnn(config);
    tofu::RunTopologies("RNN-10-8K", model, json_ptr);
  }
  std::printf("\n");

  json.EndArray();
  json.EndObject();
  if (!json_path.empty()) {
    if (!tofu::WriteTextFile(json_path, json.str() + "\n")) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
