// The concurrent planning service behind tofu-pland.
//
// PlanService routes each request to a thread-safe Session keyed by the request's
// device topology (sessions are created lazily and live for the service's lifetime, so
// every request against the same topology shares one plan cache and one single-flight
// table). StreamServer drives a line-delimited JSON stream through the service on the
// fork-join thread pool: it reads requests in batches, dispatches a batch across
// ThreadPool::ParallelFor -- which is where concurrent identical requests actually race
// into the session and coalesce -- and writes one response line per request, in input
// order, so output is deterministic regardless of scheduling.
//
// Response line (schema tofu.serve.v1; docs/serving.md has the full story):
//   {"schema":"tofu.serve.v1","id":7,"ok":true,"model":"mlp","algorithm":"Tofu",
//    "workers":8,"from_cache":false,"coalesced":false,"elapsed_seconds":0.0123,
//    "peak_shard_bytes":...,"all_resident_bytes":...,"fits_device_memory":true,
//    "estimated_comm_seconds":...,"plan":{...tofu.plan.v2...}}
//   {"schema":"tofu.serve.v1","id":9,"ok":false,"code":"NOT_FOUND","error":"..."}
#ifndef TOFU_SERVE_SERVER_H_
#define TOFU_SERVE_SERVER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "tofu/core/session.h"
#include "tofu/serve/request.h"
#include "tofu/util/status.h"
#include "tofu/util/thread_pool.h"

namespace tofu {

struct PlanServiceOptions {
  size_t max_cached_plans = 256;  // per session (per distinct topology)
  size_t cache_shards = 8;
  // Ignored, like DpOptions::num_threads: each partition search runs on the thread that
  // serves its request. Kept only because existing callers still set it.
  int search_threads = 0;
};

// Thread-safe session router: one Session per distinct DeviceTopology fingerprint.
// Requests for eight workers and sixteen workers describe different search spaces, so
// they get separate plan caches; all threads asking for the same topology share one.
class PlanService {
 public:
  explicit PlanService(PlanServiceOptions options = {}) : options_(options) {}

  // Builds the request's model graph and partitions it on the topology's session.
  // Thread-safe; blocks only on the session's single-flight/search, never on other
  // topologies' searches.
  Result<PartitionResponse> Partition(const ServeRequest& request);

  // Counters summed across every session (a consistent-enough snapshot, like
  // Session::cache_stats()).
  PlanCacheStats cache_stats() const;
  size_t num_sessions() const;

 private:
  Session& SessionFor(const DeviceTopology& topology);

  PlanServiceOptions options_;
  mutable std::mutex mu_;  // guards sessions_ (the map, not the Sessions themselves)
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;
};

struct StreamServerOptions {
  int threads = 4;         // worker threads dispatching each batch
  size_t batch_size = 64;  // requests pulled from the stream per ParallelFor round
  // When false, response lines omit the (large) "plan" member -- counters, memory
  // accounting and latency only. The load driver uses this to measure planning
  // throughput rather than JSON serialization throughput.
  bool include_plans = true;
  // Applied to requests that omit the "algorithm" field (tofu-pland --algo=NAME); an
  // explicit field in the request always wins.
  PartitionAlgorithm default_algorithm = PartitionAlgorithm::kTofu;
  // Applied to requests that omit the "memory_policy" field (tofu-pland
  // --memory-policy=NAME): what the search may do -- swap, recompute, both, or
  // nothing -- when no all-resident plan fits the request budget (memory/repair.h).
  MemoryPolicy default_memory_policy = MemoryPolicy::kAuto;
  PlanServiceOptions service;
};

// What one Serve() call did, measured over exactly that stream (cache counters are the
// delta across the call, so per-connection numbers stay meaningful on a shared service).
struct StreamServerMetrics {
  std::int64_t requests = 0;  // response lines written
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  double elapsed_seconds = 0.0;  // first byte read -> last response flushed
  double p50_seconds = 0.0;      // per-request latency percentiles
  double p99_seconds = 0.0;
  PlanCacheStats cache;

  double qps() const { return elapsed_seconds > 0 ? requests / elapsed_seconds : 0.0; }
  // Fraction of validated requests served without paying for a search (hits plus
  // coalesced riders over hits + misses + coalesced).
  double hit_rate() const;

  std::string Summary() const;  // one human-readable line for stderr
  std::string ToJson() const;   // machine-readable (bench_serve --json)
};

class StreamServer {
 public:
  explicit StreamServer(StreamServerOptions options = {});

  // Reads line-delimited JSON requests from `in` until EOF, writes one response line
  // per request (input order) to `out`, returns this stream's metrics. Blank lines are
  // skipped; a malformed line still produces a response line (ok:false, id -1 when the
  // id cannot be recovered). Callable repeatedly; the plan caches persist across calls.
  StreamServerMetrics Serve(std::istream& in, std::ostream& out);

  PlanService& service() { return service_; }
  const StreamServerOptions& options() const { return options_; }

 private:
  StreamServerOptions options_;
  PlanService service_;
  ThreadPool pool_;
};

// Serializes one response line (no trailing newline). Exposed for tests and the load
// driver so they can compare against exactly what the server emits. With include_plan,
// a response carrying a render slot (PartitionResponse::plan_json) appends the plan
// bytes stored there, rendering them into the slot on the entry's first serve; one
// without a slot renders its plan directly. The bytes are the same either way.
std::string ServeResponseLine(const ServeRequest& request,
                              const Result<PartitionResponse>& result,
                              double elapsed_seconds, bool include_plan);

// Parses `line` and serves it through `service`, timing the call. The building block
// Serve() dispatches onto the pool; exposed for the in-process load driver.
std::string HandleServeLine(
    PlanService& service, const std::string& line, bool include_plan,
    PartitionAlgorithm default_algorithm = PartitionAlgorithm::kTofu,
    MemoryPolicy default_memory_policy = MemoryPolicy::kAuto);

// Binds a Unix domain socket at `path` (unlinking any stale socket first) and serves
// connections sequentially, each with the full line-stream protocol; per-connection
// summaries go to `log`. Runs until accept fails (e.g. the socket is removed); returns
// the setup or accept error. SIGPIPE is ignored for the process.
Status ServeUnixSocket(StreamServer& server, const std::string& path,
                       std::ostream& log);

}  // namespace tofu

#endif  // TOFU_SERVE_SERVER_H_
