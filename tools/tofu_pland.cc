// tofu-pland: the concurrent planning daemon.
//
// Reads line-delimited JSON partition requests (docs/serving.md) from stdin and writes
// one tofu.serve.v1 response line per request to stdout, in input order; with --socket
// it serves the same protocol over a Unix domain socket instead. Requests are
// dispatched in batches across a fork-join thread pool onto per-topology thread-safe
// Sessions, so repeated and concurrent identical requests hit the sharded LRU plan
// cache or coalesce onto one in-flight search. On EOF a summary -- QPS, cache hit
// rate, p50/p99 latency -- is printed to stderr (human line plus a JSON line).
//
//   printf '{"model":"mlp","workers":8}\n' | tofu-pland --threads=8
//   tofu-pland --socket=/tmp/tofu-pland.sock   # then: nc -U /tmp/tofu-pland.sock
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "tofu/serve/server.h"

namespace {

constexpr const char* kUsage = R"(usage: tofu-pland [flags] < requests.jsonl > responses.jsonl

Flags:
  --threads=N         worker threads per batch (default 4)
  --search-threads=N  accepted and ignored: each search runs on the thread
                      that serves its request
  --batch=N           max requests dispatched per round (default 64)
  --cache-capacity=N  cached plans per topology session (default 256)
  --cache-shards=N    lock shards per plan cache (default 8)
  --algo=NAME         default algorithm for requests that omit "algorithm"
                      (Tofu | Hybrid | DataParallel | EqualChop | Spartan |
                      AllRow-Greedy | ICML18; default Tofu)
  --memory-policy=NAME  default repair policy for requests that omit
                      "memory_policy": what the search may do when no all-resident
                      plan fits the budget (auto | swap | recompute | none;
                      default auto)
  --no-plans          omit the "plan" member from response lines
  --socket=PATH       serve a Unix domain socket instead of stdin/stdout
  --quiet             suppress the stderr summary
  --help              this text
)";

bool ConsumeValue(const std::string& arg, const std::string& name,
                  std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

long ParseLong(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 0) {
    std::fprintf(stderr, "tofu-pland: bad value for %s: '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  tofu::StreamServerOptions options;
  std::string socket_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--no-plans") {
      options.include_plans = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (ConsumeValue(arg, "--threads", &value)) {
      options.threads = static_cast<int>(ParseLong("--threads", value));
    } else if (ConsumeValue(arg, "--search-threads", &value)) {
      options.service.search_threads =
          static_cast<int>(ParseLong("--search-threads", value));
    } else if (ConsumeValue(arg, "--batch", &value)) {
      options.batch_size = static_cast<size_t>(ParseLong("--batch", value));
    } else if (ConsumeValue(arg, "--cache-capacity", &value)) {
      options.service.max_cached_plans =
          static_cast<size_t>(ParseLong("--cache-capacity", value));
    } else if (ConsumeValue(arg, "--cache-shards", &value)) {
      options.service.cache_shards =
          static_cast<size_t>(ParseLong("--cache-shards", value));
    } else if (ConsumeValue(arg, "--algo", &value)) {
      tofu::Result<tofu::PartitionAlgorithm> algo = tofu::AlgorithmFromName(value);
      if (!algo.ok()) {
        std::fprintf(stderr, "tofu-pland: %s\n", algo.status().ToString().c_str());
        return 2;
      }
      options.default_algorithm = *algo;
    } else if (ConsumeValue(arg, "--memory-policy", &value)) {
      tofu::Result<tofu::MemoryPolicy> policy = tofu::MemoryPolicyFromName(value);
      if (!policy.ok()) {
        std::fprintf(stderr, "tofu-pland: %s\n", policy.status().ToString().c_str());
        return 2;
      }
      options.default_memory_policy = *policy;
    } else if (ConsumeValue(arg, "--socket", &value)) {
      socket_path = value;
    } else {
      std::fprintf(stderr, "tofu-pland: unknown flag '%s'\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }

  tofu::StreamServer server(options);

  if (!socket_path.empty()) {
    const tofu::Status status = tofu::ServeUnixSocket(server, socket_path, std::cerr);
    std::fprintf(stderr, "tofu-pland: %s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }

  const tofu::StreamServerMetrics metrics = server.Serve(std::cin, std::cout);
  if (!quiet) {
    std::cerr << metrics.Summary() << "\n" << metrics.ToJson() << std::endl;
  }
  return 0;
}
