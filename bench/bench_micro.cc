// Engineering micro-benchmarks (google-benchmark): the hot paths of the partitioner --
// TDL strategy discovery, coarsening, one DP step, full recursive search, a Session
// plan-cache hit, lowering and event simulation. Report-only: nothing gates on these
// wall times.
#include <benchmark/benchmark.h>

#include "tofu/core/experiment.h"
#include "tofu/core/session.h"
#include "tofu/models/mlp.h"
#include "tofu/models/transformer.h"
#include "tofu/partition/dp.h"
#include "tofu/tdl/registry.h"

namespace tofu {
namespace {

void BM_StrategyDiscoveryConv2d(benchmark::State& state) {
  // Cache-defeating: vary an attribute so every iteration re-runs the analysis.
  std::int64_t pad = 0;
  for (auto _ : state) {
    OpAttrs attrs;
    attrs.Set("stride", 1).Set("pad", 1).Set("salt", pad++);
    benchmark::DoNotOptimize(OpRegistry::Get().Semantics("conv2d", attrs, {4, 4}));
  }
}
BENCHMARK(BM_StrategyDiscoveryConv2d);

ModelGraph BenchMlp() {
  MlpConfig config;
  config.layer_sizes = {1024, 1024, 1024, 1024, 512};
  config.batch = 128;
  return BuildMlp(config);
}

void BM_BuildMlpTrainingGraph(benchmark::State& state) {
  for (auto _ : state) {
    ModelGraph model = BenchMlp();
    benchmark::DoNotOptimize(model.graph.num_ops());
  }
}
BENCHMARK(BM_BuildMlpTrainingGraph);

void BM_Coarsen(benchmark::State& state) {
  ModelGraph model = BenchMlp();
  for (auto _ : state) {
    CoarseGraph cg = Coarsen(model.graph);
    benchmark::DoNotOptimize(cg.num_slots());
  }
}
BENCHMARK(BM_Coarsen);

// One DP step through the dense-lattice search engine.
void BM_DpStep(benchmark::State& state) {
  ModelGraph model = BenchMlp();
  CoarseGraph cg = Coarsen(model.graph);
  for (auto _ : state) {
    StepContext ctx(model.graph, StepContext::InitialShapes(model.graph), 2);
    DpResult dp = RunStepDp(&ctx, cg, DpOptions{});
    benchmark::DoNotOptimize(dp.plan.comm_bytes);
  }
}
BENCHMARK(BM_DpStep);

// Per-phase attribution of one big many-worker search (the dense-lattice engine
// path): SearchStats splits the engine's wall time into cost-table fill, state
// expansion, cost charging, and projection, so a regression in any one phase is
// visible even when the total hides it. Also reports how many frontier states
// dominance pruning skipped (plan-invariant; docs/search.md).
void BM_SearchPhasesWResNet64(benchmark::State& state) {
  WResNetConfig config;
  config.layers = 152;
  config.width = 10;
  config.batch = 8;
  ModelGraph model = BuildWResNet(config);
  double fill = 0.0, expand = 0.0, charge = 0.0, project = 0.0;
  double dominated = 0.0;
  for (auto _ : state) {
    PartitionPlan plan = RecursivePartition(model.graph, 64);
    fill += plan.search_stats.fill_seconds;
    expand += plan.search_stats.expand_seconds;
    charge += plan.search_stats.charge_seconds;
    project += plan.search_stats.project_seconds;
    dominated = static_cast<double>(plan.search_stats.dominated_pruned_states);
    benchmark::DoNotOptimize(plan.total_comm_bytes);
  }
  state.counters["fill_s"] = benchmark::Counter(fill, benchmark::Counter::kAvgIterations);
  state.counters["expand_s"] =
      benchmark::Counter(expand, benchmark::Counter::kAvgIterations);
  state.counters["charge_s"] =
      benchmark::Counter(charge, benchmark::Counter::kAvgIterations);
  state.counters["project_s"] =
      benchmark::Counter(project, benchmark::Counter::kAvgIterations);
  state.counters["dominated"] = benchmark::Counter(dominated);
}
BENCHMARK(BM_SearchPhasesWResNet64)->Unit(benchmark::kMillisecond);

// The dense-lattice charge kernel in isolation: for every run of `r` frontier cells
// sharing a table prefix, add one gathered table value across the contiguous run --
// the exact inner loop RunDense's charge phase executes (search_engine.cc). Arg pair =
// (frontier cells, run length); reports effective bytes/second over the cost array.
void BM_DenseChargeKernel(benchmark::State& state) {
  const std::int64_t cells = state.range(0);
  const std::int64_t run = state.range(1);
  std::vector<double> cost(static_cast<size_t>(cells), 1.0);
  std::vector<double> table(static_cast<size_t>(cells / run), 0.5);
  for (auto _ : state) {
    double* c = cost.data();
    for (std::int64_t p = 0; p < cells / run; ++p, c += run) {
      const double t = table[static_cast<size_t>(p)];
      for (std::int64_t j = 0; j < run; ++j) {
        c[j] += t;
      }
    }
    benchmark::DoNotOptimize(cost.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * cells * sizeof(double));
}
BENCHMARK(BM_DenseChargeKernel)->Args({1 << 16, 4})->Args({1 << 16, 64})
    ->Args({1 << 20, 64});

void BM_RecursivePartitionMlp8(benchmark::State& state) {
  ModelGraph model = BenchMlp();
  for (auto _ : state) {
    PartitionPlan plan = RecursivePartition(model.graph, 8);
    benchmark::DoNotOptimize(plan.total_comm_bytes);
  }
}
BENCHMARK(BM_RecursivePartitionMlp8);

// Full recursive search. Also reports the engine's own wall time
// and cost-evaluation count through SearchStats counters.
void BM_RecursivePartitionWResNet50(benchmark::State& state) {
  WResNetConfig config;
  config.layers = 50;
  config.width = 4;
  config.batch = 32;
  ModelGraph model = BuildWResNet(config);
  double engine_seconds = 0.0;
  std::int64_t evals = 0;
  for (auto _ : state) {
    PartitionPlan plan = RecursivePartition(model.graph, 8);
    engine_seconds += plan.search_stats.wall_seconds;
    evals += plan.search_stats.states_explored;
    benchmark::DoNotOptimize(plan.total_comm_bytes);
  }
  state.counters["engine_s"] =
      benchmark::Counter(engine_seconds, benchmark::Counter::kAvgIterations);
  state.counters["cost_evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RecursivePartitionWResNet50)->Unit(benchmark::kMillisecond);

// One Session::Partition cache hit on a big graph; Arg picks it: 0 = WResNet-152-10,
// 1 = RNN-10-8K, 2 = Transformer-48 (the search-cold graphs), all at 8 uniform workers.
// The miss that fills the cache runs once, before timing.
void BM_SessionHit(benchmark::State& state) {
  ModelGraph model;
  switch (state.range(0)) {
    case 0: {
      WResNetConfig config;
      config.layers = 152;
      config.width = 10;
      config.batch = 8;
      model = BuildWResNet(config);
      break;
    }
    case 1: {
      RnnConfig config;
      config.layers = 10;
      config.hidden = 8192;
      config.batch = 128;
      model = BuildRnn(config);
      break;
    }
    default: {
      TransformerConfig config;
      config.layers = 48;
      model = BuildTransformer(config);
      break;
    }
  }
  state.SetLabel(model.name);
  Session session(DeviceTopology::Uniform(8));
  PartitionRequest request;
  request.graph = &model.graph;
  if (!session.Partition(request).ok()) {
    state.SkipWithError("the filling search failed");
    return;
  }
  for (auto _ : state) {
    Result<PartitionResponse> response = session.Partition(request);
    benchmark::DoNotOptimize(response->from_cache);
  }
}
BENCHMARK(BM_SessionHit)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_LowerAndSimulate(benchmark::State& state) {
  ModelGraph model = BenchMlp();
  const ClusterSpec cluster = K80Cluster();
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  for (auto _ : state) {
    SimGraph sim = LowerPartitioned(model.graph, plan, cluster, model.batch);
    SimResult r = RunSim(sim, cluster);
    benchmark::DoNotOptimize(r.makespan_s);
  }
}
BENCHMARK(BM_LowerAndSimulate);

void BM_EventSimScaling(benchmark::State& state) {
  // Pure simulator throughput on a synthetic butterfly of the given size.
  const int n = static_cast<int>(state.range(0));
  SimGraph g;
  g.num_devices = 8;
  g.resident_bytes.assign(8, 0.0);
  for (int i = 0; i < n; ++i) {
    SimNode node;
    node.kind = SimNode::Kind::kCompute;
    node.device = i % 8;
    node.duration_s = 1e-5;
    if (i >= 8) {
      node.deps = {i - 8, i - (i % 8) - 1};
    }
    g.Add(std::move(node));
  }
  const ClusterSpec cluster = K80Cluster();
  for (auto _ : state) {
    SimResult r = RunSim(g, cluster);
    benchmark::DoNotOptimize(r.makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventSimScaling)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace tofu
