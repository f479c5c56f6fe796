#include "tofu/core/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tofu/interconnect/sim_bridge.h"
#include "tofu/memory/liveness.h"
#include "tofu/memory/repair.h"
#include "tofu/memory/schedule.h"
#include "tofu/memory/sim_replay.h"
#include "tofu/partition/plan_io.h"
#include "tofu/pipeline/compose.h"
#include "tofu/util/logging.h"
#include "tofu/util/strings.h"

namespace tofu {

const char* AlgorithmName(PartitionAlgorithm algorithm) {
  switch (algorithm) {
    case PartitionAlgorithm::kTofu:
      return "Tofu";
    case PartitionAlgorithm::kIcml18:
      return "ICML18";
    case PartitionAlgorithm::kEqualChop:
      return "EqualChop";
    case PartitionAlgorithm::kSpartan:
      return "Spartan";
    case PartitionAlgorithm::kAllRowGreedy:
      return "AllRow-Greedy";
    case PartitionAlgorithm::kDataParallel:
      return "DataParallel";
    case PartitionAlgorithm::kHybrid:
      return "Hybrid";
  }
  return "?";
}

namespace {

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kTofu,         PartitionAlgorithm::kIcml18,
    PartitionAlgorithm::kEqualChop,    PartitionAlgorithm::kSpartan,
    PartitionAlgorithm::kAllRowGreedy, PartitionAlgorithm::kDataParallel,
    PartitionAlgorithm::kHybrid,
};

}  // namespace

Result<PartitionAlgorithm> AlgorithmFromName(const std::string& name) {
  std::vector<std::string> known;
  for (PartitionAlgorithm algorithm : kAllAlgorithms) {
    if (name == AlgorithmName(algorithm)) {
      return algorithm;
    }
    known.push_back(AlgorithmName(algorithm));
  }
  return Status(StatusCode::kInvalidArgument,
                StrFormat("unknown algorithm '%s' (known: %s)", name.c_str(),
                          Join(known, ", ").c_str()));
}

double DeviceTopology::BandwidthForStep(size_t step) const {
  return LevelBandwidth(level_bandwidths, uniform_bandwidth, step);
}

std::string DeviceTopology::Fingerprint() const {
  std::string out = StrFormat("w=%d;ub=%.17g;mem=%lld;lv=", num_workers, uniform_bandwidth,
                              static_cast<long long>(memory_bytes_per_worker));
  for (double b : level_bandwidths) {
    out += StrFormat("%.17g,", b);
  }
  if (interconnect != nullptr) {
    out += ";net=" + interconnect->Fingerprint();
  }
  return out;
}

DeviceTopology DeviceTopology::Uniform(int num_workers, double bandwidth) {
  DeviceTopology topology;
  topology.num_workers = num_workers;
  topology.uniform_bandwidth = bandwidth;
  return topology;
}

DeviceTopology DeviceTopology::WithInterconnect(std::shared_ptr<const Interconnect> net,
                                                std::int64_t memory_bytes_per_worker) {
  DeviceTopology topology;
  TOFU_CHECK(net != nullptr);
  topology.num_workers = net->num_workers();
  topology.memory_bytes_per_worker = memory_bytes_per_worker;
  topology.interconnect = std::move(net);
  return topology;
}

DeviceTopology DeviceTopology::FromCluster(const ClusterSpec& cluster) {
  DeviceTopology topology;
  topology.num_workers = cluster.num_gpus;
  topology.uniform_bandwidth = cluster.p2p_bandwidth;
  // Coarsest split first: its traffic crosses the shared host link between the PCIe
  // root complexes; everything deeper stays peer-to-peer.
  topology.level_bandwidths = {cluster.cpu_bandwidth, cluster.p2p_bandwidth};
  topology.memory_bytes_per_worker = static_cast<std::int64_t>(cluster.gpu.mem_capacity);
  return topology;
}

PlanCacheStats Session::cache_stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.collisions = collisions_.load(std::memory_order_relaxed);
  stats.evictions = cache_.evictions();
  return stats;
}

// Includes memory_budget_bytes: since the budget became a first-class search constraint
// (it steers which states survive the DP and whether the ordering / lightest-cuts
// fallbacks engage), two requests differing only in budget can legitimately produce
// different plans, so they must not share a cache entry. A retry with a bigger budget
// is therefore a fresh search -- which is exactly what can now succeed where the
// smaller budget failed. The option fields come through PartitionOptions::Fingerprint,
// defined next to the structs so new fields cannot be forgotten here.
std::string Session::CacheKey(const PartitionRequest& request) const {
  return StrFormat("g=%016llx;a=%d;rb=%lld;",
                   static_cast<unsigned long long>(GraphSignature(*request.graph)),
                   static_cast<int>(request.algorithm),
                   static_cast<long long>(request.memory_budget_bytes)) +
         request.options.Fingerprint() + "topo=" + topology_.Fingerprint();
}

namespace {

// The hard verdict against the request budget, phrased so the user fixes the RIGHT
// knob: when the topology's per-worker device memory is smaller than the requested
// budget, raising memory_budget_bytes cannot possibly help -- the device bound is the
// binding constraint and the message says so. A plan the search itself already proved
// unbeatable (memory_feasible == false) reports the deficit as final rather than as a
// property of one plan. For pure plans the message also quotes the floor: the minimum
// achievable peak with every buffer offloaded (MinAchievablePeakBytes) -- the number
// that tells the user whether ANY recompute/swap schedule could ever fit the budget,
// or whether only more workers can.
Status BudgetCheck(const Graph& graph, const PartitionResponse& response,
                   std::int64_t budget, std::int64_t device_memory) {
  if (budget <= 0 || response.peak_shard_bytes <= budget) {
    return Status::Ok();
  }
  const char* severity = response.plan.memory_feasible
                             ? "the chosen plan needs"
                             : "no searched configuration fits: the lightest plan "
                               "still needs";
  std::string advice;
  if (device_memory > 0 && device_memory < budget) {
    advice = StrFormat(
        "the topology's memory_bytes_per_worker (%s) is below the requested budget, so "
        "raising memory_budget_bytes cannot help; add workers or use larger devices",
        HumanBytes(static_cast<double>(device_memory)).c_str());
  } else {
    advice = "add workers or raise memory_budget_bytes";
  }
  std::string floor_note;
  if (response.plan.pipeline == nullptr && !response.plan.steps.empty()) {
    floor_note = StrFormat(
        " (minimum achievable peak with every buffer swapped or recomputed: %s)",
        HumanBytes(static_cast<double>(
                       MinAchievablePeakBytes(graph, response.plan)))
            .c_str());
  }
  return Status(
      StatusCode::kResourceExhausted,
      StrFormat("%s %s per worker but the budget is %s (deficit %s); %s%s", severity,
                HumanBytes(static_cast<double>(response.peak_shard_bytes)).c_str(),
                HumanBytes(static_cast<double>(budget)).c_str(),
                HumanBytes(static_cast<double>(response.peak_shard_bytes - budget))
                    .c_str(),
                advice.c_str(), floor_note.c_str()));
}

// The first figure the response or its plan would report that is not finite, or ""
// when every one is.
std::string NonFiniteResponseField(const PartitionResponse& response) {
  for (size_t i = 0; i < response.step_seconds.size(); ++i) {
    if (!std::isfinite(response.step_seconds[i])) return StrFormat("step_seconds[%zu]", i);
  }
  for (const auto& [name, value] :
       {std::pair{"estimated_comm_seconds", response.estimated_comm_seconds},
        std::pair{"simulated_comm_seconds", response.simulated_comm_seconds},
        std::pair{"memory_overhead_seconds", response.memory_overhead_seconds},
        std::pair{"simulated_memory_seconds", response.simulated_memory_seconds}}) {
    if (!std::isfinite(value)) return name;
  }
  const std::string plan_field = NonFinitePlanField(response.plan);
  return plan_field.empty() ? plan_field : "plan." + plan_field;
}

}  // namespace

Result<PartitionResponse> Session::Partition(const PartitionRequest& request) {
  if (request.graph == nullptr) {
    return Status(StatusCode::kInvalidArgument, "PartitionRequest.graph is null");
  }
  if (topology_.num_workers < 1) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("DeviceTopology.num_workers = %d; need >= 1",
                            topology_.num_workers));
  }
  // Every bandwidth divides a byte count somewhere downstream; zero, negative or NaN
  // ones would turn into inf/NaN estimates inside an ok() response. (A positive one can
  // still be small enough to overflow a figure; SearchAndCache catches that.)
  if (!(topology_.uniform_bandwidth > 0.0)) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("DeviceTopology.uniform_bandwidth = %g; need > 0",
                            topology_.uniform_bandwidth));
  }
  for (double b : topology_.level_bandwidths) {
    if (!(b > 0.0)) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("DeviceTopology.level_bandwidths entry %g; need > 0", b));
    }
  }
  if (topology_.interconnect != nullptr &&
      topology_.interconnect->num_workers() != topology_.num_workers) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("DeviceTopology.interconnect has %d workers but "
                            "num_workers = %d; they must agree",
                            topology_.interconnect->num_workers(),
                            topology_.num_workers));
  }
  for (double b : request.options.step_bandwidths) {
    if (!(b > 0.0)) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("PartitionOptions.step_bandwidths entry %g; need > 0", b));
    }
  }
  const std::string key = CacheKey(request);

  // Fast path: a completed identical request left its response in the cache.
  if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
    if (std::optional<Result<PartitionResponse>> hit =
            ServeHit(request, *std::move(cached))) {
      return *std::move(hit);
    }
    // The 64-bit GraphSignature collided: the cached plan belongs to a different graph.
    // Serving it would be silently wrong; drop the stale entry and fall through to a
    // fresh search (latest graph wins) and count the event.
    collisions_.fetch_add(1, std::memory_order_relaxed);
    cache_.Erase(key);
  }

  // Single-flight: exactly one thread (the leader) searches a given key at a time;
  // every other concurrent identical request blocks on the leader's future and copies
  // its result -- N racing requests cost one search.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    std::shared_ptr<Flight>& slot = inflight_[key];
    if (slot == nullptr) {
      slot = std::make_shared<Flight>();
      leader = true;
    }
    flight = slot;
  }
  if (!leader) {
    // Count BEFORE blocking: a test hook can hold the leader until every racer shows
    // up in the coalesced counter, making "K threads -> 1 search" deterministic.
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    Result<PartitionResponse> shared = flight->future.get();  // copies the leader's result
    if (shared.ok()) {
      shared->coalesced = true;
    }
    return shared;
  }

  // Leader double-check: between our cache miss and winning the flight, a previous
  // leader may have completed and retired -- its result is in the cache now. Serving it
  // keeps misses == distinct searches (and the response byte-identical either way).
  Result<PartitionResponse> result = [&]() -> Result<PartitionResponse> {
    if (std::optional<CachedPlan> raced = cache_.Lookup(key)) {
      if (std::optional<Result<PartitionResponse>> hit =
              ServeHit(request, *std::move(raced))) {
        return *std::move(hit);
      }
    }
    return SearchAndCache(request, key);
  }();
  flight->promise.set_value(result);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  return result;
}

std::optional<Result<PartitionResponse>> Session::ServeHit(const PartitionRequest& request,
                                                          CachedPlan cached) {
  if (!ValidatePlanForGraph(*request.graph, cached.response.plan).ok()) {
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // The budget is part of the key, so a hit was searched under this exact budget and
  // its stored verdict is the insertion-time check's (an infeasible request fails fast
  // here without re-searching).
  TOFU_RETURN_IF_ERROR(cached.verdict);
  cached.response.from_cache = true;
  return Result<PartitionResponse>(std::move(cached.response));
}

Result<PartitionResponse> Session::SearchAndCache(const PartitionRequest& request,
                                                  const std::string& key) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (search_hook_) {
    search_hook_(key);
  }
  const Graph& graph = *request.graph;

  // Reject graphs with unregistered operators up front: everything downstream (strategy
  // discovery, shape inference, lowering) assumes registry entries exist and aborts
  // otherwise. Builders cannot create such graphs, but deserialized or mutated ones
  // can. Runs after the cache lookup -- the key hashes every op type, so a hit implies
  // an identical op set already passed this scan when its entry was inserted.
  const OpRegistry& registry = OpRegistry::Get();
  for (const OpNode& op : graph.ops()) {
    if (!registry.Has(op.type)) {
      return Status(StatusCode::kNotFound,
                    StrFormat("operator '%s' (op #%d) has no TDL registry entry",
                              op.type.c_str(), op.id));
    }
  }

  // The recursion-based algorithms take the topology into the search: each step's bytes
  // are weighted by the link they cross, and non-uniform bandwidths trigger the factor-
  // ordering search (partition/recursive.h).
  PartitionOptions options = request.options;
  if (options.step_bandwidths.empty()) {
    if (topology_.interconnect != nullptr) {
      // Contention-aware effective bandwidth per recursive step, priced over the link
      // graph for the canonical factorization's group-local all-to-all patterns. On a
      // hierarchy (or any topology where the levels genuinely differ) these engage the
      // factor-ordering search, which then minimizes real transfer time.
      options.step_bandwidths = topology_.interconnect->StepBandwidths(
          FactorizeWorkers(topology_.num_workers));
    } else {
      options.step_bandwidths = topology_.level_bandwidths.empty()
                                    ? std::vector<double>{topology_.uniform_bandwidth}
                                    : topology_.level_bandwidths;
    }
  }
  // The request budget steers the recursion-based searches (memory as a first-class
  // constraint); a budget already set on the options (a direct RecursivePartition-style
  // caller) wins, mirroring step_bandwidths.
  if (options.memory_budget_bytes == 0) {
    options.memory_budget_bytes = request.memory_budget_bytes;
  }
  // The repair pass prices host swaps against the slowest link a shard's traffic can
  // cross: the interconnect's bottleneck link when one is modeled, else the coarsest
  // level's bandwidth (the shared host link on FromCluster topologies). A pricing the
  // caller set explicitly wins, mirroring step_bandwidths and the budget above.
  if (options.memory_pricing.host_bandwidth == 0.0) {
    if (topology_.interconnect != nullptr) {
      const std::vector<double>& bw = topology_.interconnect->links().bandwidth;
      options.memory_pricing.host_bandwidth =
          bw.empty() ? topology_.uniform_bandwidth
                     : *std::min_element(bw.begin(), bw.end());
    } else {
      options.memory_pricing.host_bandwidth = topology_.BandwidthForStep(0);
    }
  }
  // Incremental re-planning: every step DP this search runs consults the session's
  // compilation cache, so plan-cache misses that share step shapes with an earlier
  // request (e.g. a budget ladder over one model) skip recomputing cost tables.
  // Byte-identical to a cold search by construction (partition/dp.h).
  options.dp.step_table_cache = &step_tables_;

  PartitionResponse response;
  switch (request.algorithm) {
    case PartitionAlgorithm::kTofu:
      response.plan = RecursivePartition(graph, topology_.num_workers, options);
      break;
    case PartitionAlgorithm::kIcml18:
      response.plan = Icml18Plan(graph, topology_.num_workers, options);
      break;
    case PartitionAlgorithm::kEqualChop:
      response.plan = EqualChopPlan(graph, topology_.num_workers, options);
      break;
    case PartitionAlgorithm::kSpartan:
      response.plan = SpartanGreedyPlan(graph, topology_.num_workers);
      break;
    case PartitionAlgorithm::kAllRowGreedy:
      response.plan = AllRowGreedyPlan(graph, topology_.num_workers);
      break;
    case PartitionAlgorithm::kDataParallel:
      response.plan = DataParallelPlan(graph, topology_.num_workers);
      break;
    case PartitionAlgorithm::kHybrid: {
      // The hybrid search composes pipeline stages with the same budget-aware recursive
      // DP kTofu runs inside each stage -- sharing this session's step-table cache --
      // and prices stage boundaries through the topology's interconnect when present.
      HybridOptions hybrid;
      hybrid.interconnect = topology_.interconnect;
      hybrid.fallback_bandwidth = topology_.BandwidthForStep(0);
      hybrid.cluster = K80Cluster();
      response.plan = HybridPartition(graph, topology_.num_workers, options, hybrid);
      break;
    }
    default:
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("unknown algorithm enum value %d",
                              static_cast<int>(request.algorithm)));
  }
  const PartitionPlan& plan = response.plan;

  // The plan's one memory verdict (PlanPeakShardBytes, memory/liveness.h): the
  // liveness-aware peak -- the figure the event simulator's memory planner would report
  // for a program-order schedule -- or the repaired schedule's proven peak, or a hybrid
  // plan's max over its stages' stage-restricted peaks. all_resident is the
  // schedule-independent upper bound, reported alongside.
  response.peak_shard_bytes = PlanPeakShardBytes(graph, plan);
  if (plan.pipeline != nullptr) {
    for (const PipelineStage& stage : plan.pipeline->stages) {
      response.all_resident_bytes =
          std::max(response.all_resident_bytes, stage.all_resident_bytes);
    }
  } else {
    response.all_resident_bytes = AllResidentShardBytes(graph, plan);
  }
  response.fits_device_memory =
      topology_.memory_bytes_per_worker <= 0 ||
      response.peak_shard_bytes <= topology_.memory_bytes_per_worker;

  // Topology-weighted step times. Recursion-based plans already carry them (the search
  // used them to pick the factor ordering); greedy baselines get them computed here from
  // the same weighted costs, which every builder fills (StepFold::Append). Hybrid plans
  // carry their aggregate figure (intra-stage comm plus every boundary transfer) but no
  // top-level steps.
  if (plan.pipeline != nullptr) {
    response.estimated_comm_seconds = plan.estimated_comm_seconds;
  } else if (plan.step_seconds.size() == plan.steps.size() && !plan.steps.empty()) {
    response.step_seconds = plan.step_seconds;
    response.estimated_comm_seconds = plan.estimated_comm_seconds;
  } else {
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      // Same effective bandwidths the recursion-based algorithms searched under, so
      // cross-algorithm time comparisons on one request are apples-to-apples.
      const double seconds =
          plan.weighted_step_costs[i] /
          LevelBandwidth(options.step_bandwidths, topology_.uniform_bandwidth, i);
      response.step_seconds.push_back(seconds);
      response.estimated_comm_seconds += seconds;
    }
  }
  // With a concrete interconnect the analytic estimate above is a bound, not a
  // schedule; replay the plan's per-step traffic through the event simulator's
  // link-level queueing so the response carries the simulated critical-path time the
  // differential harness validates the estimate against.
  if (topology_.interconnect != nullptr && plan.pipeline == nullptr) {
    response.simulated_comm_seconds =
        SimPlanCommSeconds(*topology_.interconnect, plan);
  }
  // A plan that fits only by offloading pays for the offloads: surface the schedule's
  // analytic overhead and its event-driven replay so callers see where on the
  // comm-time / peak-memory / recompute frontier this plan sits (and tests can gate
  // analytic <= sim <= 2 * analytic).
  if (plan.memory_schedule != nullptr && plan.pipeline == nullptr) {
    response.memory_overhead_seconds = plan.memory_schedule->AnalyticOverheadSeconds();
    response.simulated_memory_seconds = SimulateScheduleSeconds(
        graph, plan, *plan.memory_schedule, options.memory_pricing);
  }
  response.search_stats = plan.search_stats;
  response.from_cache = false;
  // JSON has no inf or NaN, and a figure that overflowed (a positive bandwidth so small
  // that bytes / bandwidth is inf) describes no real plan. Rejected before caching, so
  // no cache entry ever holds a plan that cannot be rendered.
  const std::string non_finite = NonFiniteResponseField(response);
  if (!non_finite.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("PartitionResponse.%s is not finite: a bandwidth too small for "
                            "the plan's bytes overflows the figures it prices",
                            non_finite.c_str()));
  }
  // One render slot per entry, shared by the cached copy, this leader's response and
  // every coalesced rider; it is filled on the entry's first serve, not here.
  response.plan_json = std::make_shared<PlanRender>();

  // Cache even a plan that fails the budget check: the search is the expensive part,
  // and a repeated identical (infeasible) request should fail fast from the cache,
  // with the verdict stored beside the plan, instead of re-proving infeasibility.
  // Insert overwrites a stale collision entry (latest graph wins); per-shard LRU
  // eviction keeps a long-lived session bounded.
  Status verdict = BudgetCheck(graph, response, request.memory_budget_bytes,
                               topology_.memory_bytes_per_worker);
  cache_.Insert(key, CachedPlan{response, verdict});
  TOFU_RETURN_IF_ERROR(verdict);
  return response;
}

Result<std::vector<FrontierPoint>> Session::MemoryFrontier(
    PartitionRequest request, const std::vector<std::int64_t>& budgets) {
  std::vector<FrontierPoint> frontier;
  frontier.reserve(budgets.size());
  for (std::int64_t budget : budgets) {
    request.memory_budget_bytes = budget;
    // The request budget (not a stale options override) must steer each row, or every
    // row would search under the first budget.
    request.options.memory_budget_bytes = 0;
    FrontierPoint point;
    point.budget_bytes = budget;
    Result<PartitionResponse> response = Partition(request);
    if (response.ok()) {
      point.feasible = true;
      point.peak_shard_bytes = response->peak_shard_bytes;
      point.comm_seconds = response->estimated_comm_seconds;
      point.memory_overhead_seconds = response->memory_overhead_seconds;
      point.simulated_memory_seconds = response->simulated_memory_seconds;
      if (response->plan.memory_schedule != nullptr) {
        point.swap_bytes = response->plan.memory_schedule->swap_bytes;
        point.recompute_seconds = response->plan.memory_schedule->recompute_seconds;
      }
    } else if (response.status().code() != StatusCode::kResourceExhausted) {
      // Infeasible budgets are frontier rows; anything else (bad graph, unknown op)
      // would poison every row the same way, so fail the sweep.
      return response.status();
    }
    frontier.push_back(point);
  }
  return frontier;
}

void Session::InsertPlanForTesting(const PartitionRequest& request,
                                   PartitionResponse response) {
  // A plan planted for another graph never validates, so it is never served and its
  // verdict is never read; the budget check would index it with this graph's ids.
  Status verdict = Status::Ok();
  if (ValidatePlanForGraph(*request.graph, response.plan).ok()) {
    verdict = BudgetCheck(*request.graph, response, request.memory_budget_bytes,
                          topology_.memory_bytes_per_worker);
  }
  cache_.Insert(CacheKey(request), CachedPlan{std::move(response), std::move(verdict)});
}

}  // namespace tofu
