// Differential harness: every analytic Interconnect cost is cross-checked against the
// event simulator's link-level queueing (interconnect/sim_bridge.h) on seeded random
// traffic matrices and whole partition plans.
//
// The contract, asserted on every sample:
//
//   analytic <= sim <= analytic * kSimEfficiencySlack
//
// The left inequality is exact by construction -- the analytic congestion/dilation
// number is a lower bound on ANY schedule, and the simulated makespan is a schedule.
// The right inequality is the achievability claim: FIFO link queueing with 4-chunks-
// per-hop store-and-forward pipelining stays within a small constant of the bound.
// The slack budgets (h-1)/(4h) < 25% pipeline fill for multi-hop routes plus FIFO
// head-of-line blocking on shared links; 1.6 holds with margin across every topology
// class here (the bench's whole-plan ratios sit at 1.01-1.13).
//
// Topology classes exercised (>= 3, per the acceptance criteria): unidirectional
// rings, port-limited full meshes, and 2-level oversubscribed hierarchies -- including
// non-power-of-two worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tofu/interconnect/interconnect.h"
#include "tofu/interconnect/sim_bridge.h"
#include "tofu/models/mlp.h"
#include "tofu/partition/baselines.h"
#include "tofu/partition/recursive.h"

namespace tofu {
namespace {

// One-sided bound is exact; the efficiency slack is the empirical contract above.
constexpr double kLowerSlop = 1.0 + 1e-9;
constexpr double kSimEfficiencySlack = 1.6;

// Deterministic 64-bit LCG (Knuth's MMIX constants): the same matrices every run, on
// every machine.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  double Next01() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state_ >> 11) /
           static_cast<double>(1ull << 53);
  }

 private:
  std::uint64_t state_;
};

struct NamedNet {
  std::string label;
  std::shared_ptr<const Interconnect> net;
};

// Ring, mesh, and hierarchy classes; 8, 12, and non-power-of-two worker counts.
std::vector<NamedNet> Topologies() {
  return {
      {"ring8", MakeRing(8, 1e9, 1e-6)},
      {"ring5", MakeRing(5, 1e9, 1e-6)},
      {"fullmesh8", MakeFullMesh(8, 1e9, 1e-6)},
      {"fullmesh6", MakeFullMesh(6, 1e9, 1e-6)},
      {"hier2x4", MakeHierarchy(2, 4, 1e9, 0.25e9, 1e-6)},
      {"hier3x4", MakeHierarchy(3, 4, 1e9, 0.5e9, 1e-6)},
  };
}

TrafficMatrix RandomDense(int n, Lcg* rng, double scale) {
  TrafficMatrix tm(n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) {
        tm.At(s, d) = (0.1 + 0.9 * rng->Next01()) * scale;
      }
    }
  }
  return tm;
}

TrafficMatrix RandomSparse(int n, Lcg* rng, double scale) {
  TrafficMatrix tm(n);
  bool any = false;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d && rng->Next01() < 0.25) {
        tm.At(s, d) = (0.1 + 0.9 * rng->Next01()) * scale;
        any = true;
      }
    }
  }
  if (!any) {
    tm.At(0, n - 1) = scale;  // a seed that rolls all-zeros still exercises the nets
  }
  return tm;
}

TrafficMatrix Hotspot(int n, Lcg* rng, double scale) {
  TrafficMatrix tm(n);
  const int src = static_cast<int>(rng->Next01() * n) % n;
  for (int d = 0; d < n; ++d) {
    if (d != src) {
      tm.At(src, d) = (0.5 + 0.5 * rng->Next01()) * scale;
    }
  }
  return tm;
}

void ExpectBracketed(const std::string& what, double analytic, double sim) {
  EXPECT_GT(analytic, 0.0) << what;
  EXPECT_LE(analytic, sim * kLowerSlop)
      << what << ": analytic bound exceeds the simulated schedule";
  EXPECT_LE(sim, analytic * kSimEfficiencySlack)
      << what << ": simulated schedule drifted above the achievability slack"
      << " (ratio " << sim / analytic << ")";
}

TEST(InterconnectDiff, RandomTrafficMatricesBracketTheSim) {
  Lcg rng(0x7075f00du);
  for (const NamedNet& t : Topologies()) {
    const int n = t.net->num_workers();
    for (int trial = 0; trial < 6; ++trial) {
      TrafficMatrix tm;
      const char* shape;
      switch (trial % 3) {
        case 0:
          tm = RandomDense(n, &rng, 1e6);
          shape = "dense";
          break;
        case 1:
          tm = RandomSparse(n, &rng, 4e6);
          shape = "sparse";
          break;
        default:
          tm = Hotspot(n, &rng, 2e6);
          shape = "hotspot";
          break;
      }
      ExpectBracketed(t.label + "/" + shape + "#" + std::to_string(trial),
                      t.net->TransferSeconds(tm), SimTransferSeconds(*t.net, tm));
    }
  }
}

TEST(InterconnectDiff, RelativeOrderingAgreesWhenWellSeparated) {
  // If the analytic model says matrix A costs >= 1.3x matrix B, the simulator must
  // agree about which is slower -- the property the search actually relies on.
  Lcg rng(0xba5eba11u);
  for (const NamedNet& t : Topologies()) {
    const int n = t.net->num_workers();
    std::vector<std::pair<double, double>> samples;  // (analytic, sim)
    for (int trial = 0; trial < 8; ++trial) {
      const TrafficMatrix tm = trial % 2 == 0 ? RandomDense(n, &rng, 5e5 * (trial + 1))
                                              : RandomSparse(n, &rng, 2e6);
      samples.emplace_back(t.net->TransferSeconds(tm), SimTransferSeconds(*t.net, tm));
    }
    for (size_t i = 0; i < samples.size(); ++i) {
      for (size_t j = 0; j < samples.size(); ++j) {
        if (samples[i].first >= 1.3 * samples[j].first) {
          EXPECT_GT(samples[i].second, samples[j].second)
              << t.label << ": analytic says sample " << i << " is >=1.3x sample " << j
              << " but the sim disagrees";
        }
      }
    }
  }
}

// Analytic counterpart of SimPlanCommSeconds: identical factors, weighted bytes, and
// StepTraffic pattern -- only the pricing differs (closed-form bound vs. simulated
// schedule), so a gap between the two is purely a model-vs-schedule gap.
double AnalyticPlanCommSeconds(const Interconnect& net, const PartitionPlan& plan) {
  std::vector<int> factors;
  factors.reserve(plan.steps.size());
  for (const BasicPlan& step : plan.steps) {
    factors.push_back(step.ways);
  }
  double total = 0.0;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const double weighted = plan.weighted_step_costs[i];
    if (weighted > 0.0) {
      total += net.TransferSeconds(net.StepTraffic(factors, i, weighted));
    }
  }
  return total;
}

TEST(InterconnectDiff, WholePlansBracketAndOrderAgainstTheSim) {
  // A weight-heavy, small-batch MLP: activations are ~100x smaller than the weights,
  // so replicating model state (data parallelism) is decisively the wrong plan.
  MlpConfig config;
  config.batch = 32;
  config.layer_sizes = {4096, 4096, 4096, 4096, 4096};
  ModelGraph model = BuildMlp(config);
  auto net = MakeHierarchy(2, 4, 21e9, 7e9, 15e-6);

  PartitionOptions options;
  options.step_bandwidths = net->StepBandwidths(FactorizeWorkers(8));
  std::vector<std::pair<std::string, PartitionPlan>> plans;
  plans.emplace_back("tofu", RecursivePartition(model.graph, 8, options));
  plans.emplace_back("equalchop", EqualChopPlan(model.graph, 8, options));
  plans.emplace_back("dataparallel", DataParallelPlan(model.graph, 8));
  plans.emplace_back("allrow", AllRowGreedyPlan(model.graph, 8));

  std::vector<std::pair<double, double>> samples;  // (analytic, sim)
  for (const auto& [label, plan] : plans) {
    const double analytic = AnalyticPlanCommSeconds(*net, plan);
    const double sim = SimPlanCommSeconds(*net, plan);
    ExpectBracketed("plan/" + label, analytic, sim);
    samples.emplace_back(analytic, sim);
  }
  // Plan ordering: where the analytic estimates are well separated, the simulated
  // critical paths rank the plans the same way -- so gating a plan on the analytic
  // number picks the same winner the simulator would.
  for (size_t i = 0; i < samples.size(); ++i) {
    for (size_t j = 0; j < samples.size(); ++j) {
      if (samples[i].first >= 1.3 * samples[j].first) {
        EXPECT_GT(samples[i].second, samples[j].second)
            << "plans " << plans[i].first << " vs " << plans[j].first;
      }
    }
  }
  // No cross-algorithm superiority assertion: the baselines account replicated model
  // state under their own conventions (Figure 10 reproduction), so absolute totals are
  // only comparable within one algorithm's plan -- which is exactly the comparison the
  // ordering loop above makes under both pricings.
}

}  // namespace
}  // namespace tofu
