// The session-based partitioning API: the long-lived entry point a service embeds.
//
//   tofu::Session session(tofu::DeviceTopology::FromCluster(tofu::K80Cluster()));
//   tofu::PartitionRequest request;
//   request.graph = &model.graph;
//   request.memory_budget_bytes = 12ll << 30;
//   tofu::Result<tofu::PartitionResponse> response = session.Partition(request);
//   if (!response.ok()) { /* recoverable: bad request, unknown op, budget too small */ }
//   UsePlan(response->plan);
//
// Beyond a one-shot search call (RecursivePartition, partition/recursive.h) a session adds:
//   * hardware in the request path -- a DeviceTopology carries the worker count and the
//     per-level link bandwidths (intra-group p2p vs. cross-group host links), so the
//     recursive search weighs each step's bytes by the link it crosses and the response
//     reports estimated per-step times;
//   * recoverable errors -- user mistakes (unknown operator, infeasible memory budget,
//     bad worker count) come back as Status via Result, never a process abort;
//   * a plan cache keyed by graph signature + request fingerprint with hit/miss
//     counters, so a service seeing repeated traffic pays for each distinct search once;
//   * serializable artifacts -- responses carry PartitionPlans that round-trip through
//     JSON (partition/plan_io.h).
//
// Sessions are THREAD-SAFE: one Session serves all threads of a process (that is the
// point -- cross-request plan-cache sharing). Concretely:
//   * the plan cache is a sharded LRU (util/sharded_lru.h) -- per-shard mutexes, so
//     hits on different shards never contend, and values are copied out under the lock;
//   * identical concurrent requests are single-flighted: the first caller (the leader)
//     runs the search, every other caller with the same cache key blocks on a shared
//     future and receives a copy of the leader's result -- one search, N responses,
//     counted in PlanCacheStats::coalesced. A leader that fails (unknown op, infeasible
//     budget) hands every waiter the same Status and then retires the flight, so the
//     key is never poisoned -- a later identical request searches afresh;
//   * counters are atomics; cache_stats() returns a consistent-enough snapshot.
// Determinism is preserved: searches are pure functions of the request, so a cached,
// coalesced, or fresh response carries a byte-identical plan (up to search wall time).
#ifndef TOFU_CORE_SESSION_H_
#define TOFU_CORE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tofu/interconnect/interconnect.h"
#include "tofu/partition/baselines.h"
#include "tofu/partition/recursive.h"
#include "tofu/sim/cost_model.h"
#include "tofu/util/sharded_lru.h"
#include "tofu/util/status.h"

namespace tofu {

// Named algorithm selector (Figure 10's comparison set plus classic data parallelism
// and the hybrid pipeline composition).
enum class PartitionAlgorithm {
  kTofu,          // recursive DP with output-reduction strategies
  kIcml18,        // recursive DP without output-reduction
  kEqualChop,     // single k-way DP step (one dimension per tensor)
  kSpartan,       // largest-tensor-first greedy
  kAllRowGreedy,  // everything split along dimension 0
  kDataParallel,  // activations batch-split, model state replicated (all-reduce grads)
  kHybrid,        // pipeline stages x intra-stage recursive DP (pipeline/compose.h);
                  // degenerates to kTofu's plan when one stage wins
};

const char* AlgorithmName(PartitionAlgorithm algorithm);

// Inverse of AlgorithmName (exact match, e.g. "Tofu", "ICML18", "AllRow-Greedy");
// kInvalidArgument lists the known names for unknown input. Backs the --algo= flags of
// the bench and example drivers.
Result<PartitionAlgorithm> AlgorithmFromName(const std::string& name);

// The hardware a session partitions for: how many workers, how fast the link each
// recursive step's traffic crosses is, and (optionally) how much memory one worker has.
// Step 0 is the coarsest split (the paper's k1), so its bytes cross the top-level --
// usually slowest -- interconnect.
struct DeviceTopology {
  int num_workers = 1;
  // Bandwidth (bytes/s) of the link crossed by recursive step i, coarse to fine; steps
  // past the end reuse the last entry. Empty means uniform_bandwidth everywhere.
  std::vector<double> level_bandwidths;
  double uniform_bandwidth = 21e9;  // PCIe p2p on the paper's testbed
  // Per-worker memory (bytes) for the advisory feasibility verdict, and -- when it is
  // the binding constraint -- named in budget-failure messages; 0 = unknown.
  std::int64_t memory_bytes_per_worker = 0;
  // Optional concrete interconnect (ring / full mesh / oversubscribed hierarchy;
  // interconnect/interconnect.h). When set it must agree with num_workers, and it
  // replaces level_bandwidths as the source of the search's per-step bandwidths: the
  // session prices each recursive step's group-local all-to-all over the link graph
  // (contention on shared links included) and feeds the resulting effective bandwidths
  // into step_bandwidths, so the factor-ordering search optimizes real transfer time.
  // Responses additionally carry simulated_comm_seconds, the plan's communication
  // replayed through the event simulator's link-level queueing. Unset (the default,
  // and every Uniform/FromCluster topology) keeps the scalar-bandwidth path --
  // byte-identical plans to the pre-interconnect goldens.
  std::shared_ptr<const Interconnect> interconnect;

  // Bandwidth step i's traffic crosses. (Whether the bandwidths differ across steps --
  // and hence whether the factor-ordering search engages -- is decided where it is
  // used, in partition/recursive.cc.)
  double BandwidthForStep(size_t step) const;
  // Deterministic string form folded into the plan-cache key.
  std::string Fingerprint() const;

  // num_workers workers behind one uniform interconnect.
  static DeviceTopology Uniform(int num_workers, double bandwidth = 21e9);
  // Topology driven by a concrete interconnect model; num_workers comes from the
  // interconnect, memory (optionally) from the caller.
  static DeviceTopology WithInterconnect(std::shared_ptr<const Interconnect> net,
                                         std::int64_t memory_bytes_per_worker = 0);
  // Derived from the simulator's ClusterSpec: the coarsest split's traffic crosses the
  // shared host link (cpu_bandwidth) between the two PCIe root complexes; every deeper
  // split stays on intra-group p2p links. Worker memory comes from the GPU spec.
  static DeviceTopology FromCluster(const ClusterSpec& cluster);
};

struct PartitionRequest {
  const Graph* graph = nullptr;  // not owned; must outlive the Partition call
  PartitionAlgorithm algorithm = PartitionAlgorithm::kTofu;
  PartitionOptions options;  // step_bandwidths is filled from the session's topology
  // Per-worker memory budget; > 0 makes memory a first-class search constraint for the
  // recursion-based algorithms (kTofu, kIcml18, kEqualChop): the search returns the
  // cheapest plan whose liveness-aware per-worker peak fits, trying alternative step
  // factor orderings and a lightest-cuts fallback before giving up. When even the
  // lightest configuration overflows, the coarse recursion (kTofu, kIcml18; not the
  // single-step kEqualChop) runs a repair pass (memory/repair.h, steered by
  // options.memory_policy): the min-comm plan is re-found unconstrained and a
  // MemorySchedule marks buffers host-swapped or recomputed -- priced against the
  // topology -- until the scheduled peak fits. Only when even full offload cannot
  // reach the budget does Partition fail with kResourceExhausted (the message reports
  // the deficit, which bound -- this budget or the topology's device memory -- is
  // binding, and the minimum achievable peak). Greedy baselines ignore the budget
  // during construction but are still checked. 0 disables the constraint entirely;
  // the response then only carries the advisory verdict against the topology's
  // memory_bytes_per_worker.
  std::int64_t memory_budget_bytes = 0;
};

// The JSON bytes of one cached plan, rendered at most once (see
// PartitionResponse::plan_json).
struct PlanRender {
  std::once_flag once;
  std::string json;  // PlanToJson(plan) once `once` has run
};

struct PartitionResponse {
  PartitionPlan plan;
  // The plan's memory verdict (PlanPeakShardBytes, memory/liveness.h): the
  // liveness-aware per-worker peak -- model state stays resident, activation buffers
  // live from producer to last consumer, and in-place outputs reuse their input's
  // buffer, the figure the event simulator's memory planner reports for a
  // program-order schedule. When the plan carries a MemorySchedule this is instead the
  // scheduled peak (offloaded buffers charged only at the ops that touch them,
  // memory/schedule.h); for a hybrid plan, the max over its stages' peaks. What the
  // budget check and feasibility verdict use.
  std::int64_t peak_shard_bytes = 0;
  // Schedule-independent upper bound: every tensor's shard resident at once (no
  // liveness credit). Kept for reporting; always >= peak_shard_bytes.
  std::int64_t all_resident_bytes = 0;
  // Advisory verdict against topology.memory_bytes_per_worker (true when unknown).
  bool fits_device_memory = true;
  // Estimated per-step communication time (weighted step bytes / link bandwidth; with
  // an interconnect the bandwidth is the contention-aware effective figure).
  std::vector<double> step_seconds;
  double estimated_comm_seconds = 0.0;
  // Only with a topology interconnect: the plan's communication replayed through the
  // event simulator's link-level queueing (SimPlanCommSeconds) -- the simulated
  // critical-path time that gates the analytic estimate. 0 otherwise.
  double simulated_comm_seconds = 0.0;
  // Only when the plan carries a MemorySchedule (the recursive search's repair pass
  // made an over-budget plan fit by swapping / recomputing buffers, memory/repair.h):
  // the schedule's analytic overhead -- max(swap_seconds, recompute_seconds), the
  // work-conserving lower bound -- and the same schedule replayed event-driven through
  // the simulator (memory/sim_replay.h). The replay is guaranteed within
  // [analytic, 2 * analytic]. Both 0 for schedule-free plans.
  double memory_overhead_seconds = 0.0;
  double simulated_memory_seconds = 0.0;
  SearchStats search_stats;
  // True when the plan came from the session's cache rather than a fresh search.
  bool from_cache = false;
  // True when this response is a copy of a concurrent identical request's search result
  // (single-flight): this caller paid a wait, not a search.
  bool coalesced = false;
  // The render slot: holds the bytes of PlanToJson(plan) for `plan` as cached. Every
  // response the session caches carries one, and its cached, hit and coalesced copies
  // share it. It starts empty, so a caller that never renders (Session::Partition
  // alone) never pays for a render; ServeResponseLine (serve/server.h) fills it on the
  // entry's first serve and copies the stored bytes after that. Null on a hand-built
  // response, which renders directly. A caller that modifies `plan` must reset this
  // first, or the slot keeps serving the plan as cached.
  std::shared_ptr<PlanRender> plan_json;
};

// One row of a comm-time / peak-memory / recompute frontier (Session::MemoryFrontier):
// what the cheapest plan under `budget_bytes` costs, and how much of that cost is the
// memory schedule's swap / recompute overhead. Budgets below the minimum achievable
// peak come back with feasible == false rather than failing the whole sweep.
struct FrontierPoint {
  std::int64_t budget_bytes = 0;
  bool feasible = false;
  std::int64_t peak_shard_bytes = 0;
  double comm_seconds = 0.0;
  // Analytic schedule overhead and its event-sim replay (0 when the plan fit without
  // a schedule -- the frontier's all-resident regime).
  double memory_overhead_seconds = 0.0;
  double simulated_memory_seconds = 0.0;
  double swap_bytes = 0.0;
  double recompute_seconds = 0.0;
};

// Snapshot of the cache counters (the live counters are atomics inside the Session).
// For any set of completed Partition calls that passed request validation,
// hits + misses + coalesced == number of calls: every such request is served from the
// cache, pays for a search, or rides a concurrent identical search -- exactly one.
struct PlanCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  // Requests that blocked on another thread's in-flight identical search and received
  // a copy of its result (single-flight).
  std::int64_t coalesced = 0;
  // Cache entries whose plan failed ValidatePlanForGraph against the request's graph: a
  // 64-bit GraphSignature collision (or an entry poisoned through the test hook). Such
  // hits fall through to a fresh search instead of serving the wrong plan.
  std::int64_t collisions = 0;
  // LRU entries dropped because a shard exceeded its capacity.
  std::int64_t evictions = 0;
};

class Session {
 public:
  // max_cached_plans bounds the plan cache (sharded least-recently-used eviction) so a
  // long-lived serving session over a stream of distinct graphs cannot grow without
  // limit; 0 disables caching entirely (single-flight still coalesces concurrent
  // identical requests). cache_shards spreads the cache over independently locked
  // shards; it is clamped so tiny caches stay exact (see util/sharded_lru.h).
  explicit Session(DeviceTopology topology = {}, size_t max_cached_plans = 128,
                   size_t cache_shards = 8)
      : topology_(std::move(topology)), cache_(max_cached_plans, cache_shards) {}

  // Validates the request, serves it from the plan cache when an identical one was seen
  // before, joins an identical in-flight search when one is running (single-flight),
  // and otherwise runs the requested algorithm. Safe to call from any number of threads
  // concurrently.
  //
  // A hit builds the key (GraphSignature is memoized on the graph, so this does not
  // rehash it), copies the cached response out of its shard, and re-validates the plan
  // against the request's graph: one ValidatePlanForGraph pass, linear in steps x
  // (tensors + ops), that looks each op's registry entry up at most once, and not at all
  // for an op whose semantics the graph already memoized (a graph this session searched).
  // A plan that fails it (a signature collision) is dropped and the request falls
  // through to a fresh search.
  //
  // Never aborts on user error:
  //   * kInvalidArgument -- null graph, or a topology with < 1 worker;
  //   * kNotFound        -- an operator in the graph has no TDL registry entry;
  //   * kResourceExhausted -- memory_budget_bytes > 0 and no searched configuration's
  //                           liveness-aware peak fits it (the message reports the
  //                           deficit and which bound is binding).
  Result<PartitionResponse> Partition(const PartitionRequest& request);

  // The comm-time / peak-memory / recompute frontier: one Partition call per budget in
  // `budgets` (request.memory_budget_bytes is overwritten), each row recording the
  // winning plan's peak, comm time, and schedule overhead. A kResourceExhausted budget
  // becomes an infeasible row; any other error aborts the sweep. Every row rides the
  // plan cache and the step-table cache, so a ladder over one model re-prices steps
  // instead of re-deriving them.
  Result<std::vector<FrontierPoint>> MemoryFrontier(
      PartitionRequest request, const std::vector<std::int64_t>& budgets);

  const DeviceTopology& topology() const { return topology_; }
  PlanCacheStats cache_stats() const;
  void ClearPlanCache() { cache_.Clear(); }

  // The session's cross-request step-compilation cache (incremental re-planning,
  // partition/dp.h). Plan-cache MISSES that differ from an earlier request only in
  // fields outside the step cache's key -- memory budget, bandwidths, thread count --
  // reuse the earlier request's per-step cost tables instead of recomputing them.
  // Exposed for tests and diagnostics; safe to read concurrently.
  StepTableCache::Stats step_table_cache_stats() const { return step_tables_.stats(); }

  // Test-only: plants `response` in the plan cache under `request`'s key, with its
  // budget verdict, exactly as a fresh search would have. Exists so the collision
  // fall-through (a cached plan that does not validate against the request's graph) can
  // be exercised without forging a 64-bit GraphSignature collision.
  void InsertPlanForTesting(const PartitionRequest& request, PartitionResponse response);

  // Test-only: `hook` runs on the searching (leader) thread right before each fresh
  // search, after the miss is counted. Concurrency tests use it to count searches and
  // to hold the leader mid-flight until every racer has coalesced. Set it before
  // concurrent Partition calls begin; not synchronized itself.
  void SetSearchStartHookForTesting(std::function<void(const std::string& key)> hook) {
    search_hook_ = std::move(hook);
  }

 private:
  // One in-flight search; waiters share the future and copy the leader's result.
  struct Flight {
    Flight() : future(promise.get_future().share()) {}
    std::promise<Result<PartitionResponse>> promise;
    std::shared_future<Result<PartitionResponse>> future;
  };

  std::string CacheKey(const PartitionRequest& request) const;
  // One plan-cache entry: the response as searched, and its budget verdict. The
  // verdict depends only on the plan, the graph, the request budget (all fixed by the
  // key) and this session's device memory, so it is worked out once, at insertion: a
  // hit on an exhausted budget returns the stored refusal instead of re-running the
  // liveness pass its message quotes.
  struct CachedPlan {
    PartitionResponse response;
    Status verdict;
  };

  // One cache hit, shared by the fast path and the leader's double-check: re-validates
  // the cached plan against the request's graph, counts the hit, returns the stored
  // budget verdict and marks the response from_cache. nullopt (nothing counted) when the
  // plan does not validate -- a signature collision the caller handles.
  std::optional<Result<PartitionResponse>> ServeHit(const PartitionRequest& request,
                                                    CachedPlan cached);
  // The full miss path: registry scan, the requested algorithm's search, memory
  // accounting, cache insertion, budget verdict. Runs on the leader thread only.
  Result<PartitionResponse> SearchAndCache(const PartitionRequest& request,
                                           const std::string& key);

  DeviceTopology topology_;
  ShardedLruCache<CachedPlan> cache_;
  // Step-compilation cache shared by every search this session runs (thread-safe; the
  // DP only reads immutable published entries). Sized generously: one entry per
  // (graph, shapes, ways) step, and a recursion over a deep model touches tens.
  StepTableCache step_tables_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> coalesced_{0};
  std::atomic<std::int64_t> collisions_{0};
  std::mutex inflight_mu_;  // guards inflight_ (the single-flight table)
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  std::function<void(const std::string&)> search_hook_;
};

}  // namespace tofu

#endif  // TOFU_CORE_SESSION_H_
