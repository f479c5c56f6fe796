#include "tofu/serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

#include "tofu/partition/plan_io.h"
#include "tofu/util/json.h"

namespace tofu {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bool IsBlank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

PlanCacheStats Subtract(const PlanCacheStats& after, const PlanCacheStats& before) {
  PlanCacheStats delta;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.coalesced = after.coalesced - before.coalesced;
  delta.collisions = after.collisions - before.collisions;
  delta.evictions = after.evictions - before.evictions;
  return delta;
}

// latencies is sorted ascending; q in [0, 1].
double Percentile(const std::vector<double>& latencies, double q) {
  if (latencies.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(latencies.size() - 1));
  return latencies[std::min(index, latencies.size() - 1)];
}

std::string ErrorResponseLine(std::int64_t id, const Status& status,
                              double elapsed_seconds) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kServeJsonSchema);
  w.Key("id").Int(id);
  w.Key("ok").Bool(false);
  w.Key("code").String(StatusCodeName(status.code()));
  w.Key("error").String(status.message());
  w.Key("elapsed_seconds").Number(elapsed_seconds);
  w.EndObject();
  return std::move(w).str();
}

// The id a rejected line answers with: its own `id` when the line is a JSON object
// whose `id` is an integral number within int64, else -1.
std::int64_t RecoverRequestId(const std::string& line) {
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok() || !doc->is_object()) {
    return -1;
  }
  Result<std::int64_t> id = doc->IntAt("id");
  return id.ok() ? *id : -1;
}

std::string HandleLine(PlanService& service, const std::string& line,
                       bool include_plan, PartitionAlgorithm default_algorithm,
                       MemoryPolicy default_memory_policy, bool* ok_out) {
  const auto start = std::chrono::steady_clock::now();
  Result<ServeRequest> request =
      ParseServeRequest(line, default_algorithm, default_memory_policy);
  if (!request.ok()) {
    *ok_out = false;
    return ErrorResponseLine(RecoverRequestId(line), request.status(),
                             SecondsSince(start));
  }
  Result<PartitionResponse> response = service.Partition(*request);
  *ok_out = response.ok();
  return ServeResponseLine(*request, response, SecondsSince(start), include_plan);
}

}  // namespace

Session& PlanService::SessionFor(const DeviceTopology& topology) {
  const std::string fingerprint = topology.Fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Session>& slot = sessions_[fingerprint];
  if (slot == nullptr) {
    slot = std::make_unique<Session>(topology, options_.max_cached_plans,
                                     options_.cache_shards);
  }
  return *slot;  // sessions are never erased, so the reference stays valid
}

Result<PartitionResponse> PlanService::Partition(const ServeRequest& request) {
  TOFU_ASSIGN_OR_RETURN(ModelGraph model, BuildServeModel(request));
  PartitionRequest partition;
  partition.graph = &model.graph;
  partition.algorithm = request.algorithm;
  partition.memory_budget_bytes = request.memory_budget_bytes;
  partition.options.memory_policy = request.memory_policy;
  return SessionFor(request.topology).Partition(partition);
}

PlanCacheStats PlanService::cache_stats() const {
  PlanCacheStats total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fingerprint, session] : sessions_) {
    PlanCacheStats stats = session->cache_stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.coalesced += stats.coalesced;
    total.collisions += stats.collisions;
    total.evictions += stats.evictions;
  }
  return total;
}

size_t PlanService::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

double StreamServerMetrics::hit_rate() const {
  const std::int64_t validated = cache.hits + cache.misses + cache.coalesced;
  if (validated == 0) return 0.0;
  return static_cast<double>(cache.hits + cache.coalesced) /
         static_cast<double>(validated);
}

std::string StreamServerMetrics::Summary() const {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "served %lld requests in %.3fs (%.1f qps): ok %lld, errors %lld; "
                "cache hit-rate %.1f%% (hits %lld, misses %lld, coalesced %lld, "
                "collisions %lld, evictions %lld); p50 %.3fms p99 %.3fms",
                static_cast<long long>(requests), elapsed_seconds, qps(),
                static_cast<long long>(ok), static_cast<long long>(errors),
                hit_rate() * 100.0, static_cast<long long>(cache.hits),
                static_cast<long long>(cache.misses),
                static_cast<long long>(cache.coalesced),
                static_cast<long long>(cache.collisions),
                static_cast<long long>(cache.evictions), p50_seconds * 1e3,
                p99_seconds * 1e3);
  return buffer;
}

std::string StreamServerMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("requests").Int(requests);
  w.Key("ok").Int(ok);
  w.Key("errors").Int(errors);
  w.Key("elapsed_seconds").Number(elapsed_seconds);
  w.Key("qps").Number(qps());
  w.Key("p50_seconds").Number(p50_seconds);
  w.Key("p99_seconds").Number(p99_seconds);
  w.Key("hit_rate").Number(hit_rate());
  w.Key("hits").Int(cache.hits);
  w.Key("misses").Int(cache.misses);
  w.Key("coalesced").Int(cache.coalesced);
  w.Key("collisions").Int(cache.collisions);
  w.Key("evictions").Int(cache.evictions);
  w.EndObject();
  return std::move(w).str();
}

std::string ServeResponseLine(const ServeRequest& request,
                              const Result<PartitionResponse>& result,
                              double elapsed_seconds, bool include_plan) {
  if (!result.ok()) {
    return ErrorResponseLine(request.id, result.status(), elapsed_seconds);
  }
  const PartitionResponse& response = *result;
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kServeJsonSchema);
  w.Key("id").Int(request.id);
  w.Key("ok").Bool(true);
  w.Key("model").String(request.model);
  w.Key("algorithm").String(AlgorithmName(request.algorithm));
  w.Key("workers").Int(request.topology.num_workers);
  w.Key("from_cache").Bool(response.from_cache);
  w.Key("coalesced").Bool(response.coalesced);
  w.Key("elapsed_seconds").Number(elapsed_seconds);
  w.Key("peak_shard_bytes").Int(response.peak_shard_bytes);
  w.Key("all_resident_bytes").Int(response.all_resident_bytes);
  w.Key("fits_device_memory").Bool(response.fits_device_memory);
  w.Key("estimated_comm_seconds").Number(response.estimated_comm_seconds);
  // Only for plans that fit via a repair schedule: the offload cost next to the comm
  // cost, so clients see the trade without parsing the plan's memory_schedule section.
  if (response.memory_overhead_seconds > 0.0) {
    w.Key("memory_overhead_seconds").Number(response.memory_overhead_seconds);
    w.Key("simulated_memory_seconds").Number(response.simulated_memory_seconds);
  }
  if (include_plan) {
    w.Key("plan");
    if (response.plan_json == nullptr) {
      w.Raw(PlanToJson(response.plan));
    } else {
      // A cached entry is rendered on its first serve, by whichever thread gets there
      // first; every later hit or coalesced copy appends the stored bytes.
      PlanRender& render = *response.plan_json;
      std::call_once(render.once, [&] { render.json = PlanToJson(response.plan); });
      w.Raw(render.json);
    }
  }
  w.EndObject();
  return std::move(w).str();
}

std::string HandleServeLine(PlanService& service, const std::string& line,
                            bool include_plan,
                            PartitionAlgorithm default_algorithm,
                            MemoryPolicy default_memory_policy) {
  bool ok = false;
  return HandleLine(service, line, include_plan, default_algorithm,
                    default_memory_policy, &ok);
}

StreamServer::StreamServer(StreamServerOptions options)
    : options_(options), service_(options.service), pool_(options.threads) {}

StreamServerMetrics StreamServer::Serve(std::istream& in, std::ostream& out) {
  StreamServerMetrics metrics;
  const PlanCacheStats before = service_.cache_stats();
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::string> batch;
  std::vector<double> latencies;
  auto flush = [&]() {
    if (batch.empty()) return;
    const std::int64_t n = static_cast<std::int64_t>(batch.size());
    std::vector<std::string> responses(batch.size());
    std::vector<char> oks(batch.size(), 0);
    std::vector<double> batch_latencies(batch.size(), 0.0);
    pool_.ParallelFor(n, [&](int /*shard*/, std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = false;
        responses[i] = HandleLine(service_, batch[i], options_.include_plans,
                                  options_.default_algorithm,
                                  options_.default_memory_policy, &ok);
        oks[i] = ok ? 1 : 0;
        batch_latencies[i] = SecondsSince(t0);
      }
    });
    for (size_t i = 0; i < batch.size(); ++i) {
      out << responses[i] << '\n';
      metrics.requests += 1;
      metrics.ok += oks[i] ? 1 : 0;
      metrics.errors += oks[i] ? 0 : 1;
    }
    out.flush();
    latencies.insert(latencies.end(), batch_latencies.begin(),
                     batch_latencies.end());
    batch.clear();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (IsBlank(line)) continue;
    batch.push_back(line);
    if (batch.size() >= std::max<size_t>(1, options_.batch_size)) flush();
  }
  flush();

  metrics.elapsed_seconds = SecondsSince(start);
  std::sort(latencies.begin(), latencies.end());
  metrics.p50_seconds = Percentile(latencies, 0.50);
  metrics.p99_seconds = Percentile(latencies, 0.99);
  metrics.cache = Subtract(service_.cache_stats(), before);
  return metrics;
}

namespace {

// Bidirectional streambuf over a connected socket; enough for getline in / lines out.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreamBuf() override { FlushOut(); }

 protected:
  int_type underflow() override {
    ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }
  int_type overflow(int_type ch) override {
    if (FlushOut() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return FlushOut(); }

 private:
  int FlushOut() {
    const char* p = pbase();
    size_t n = static_cast<size_t>(pptr() - pbase());
    while (n > 0) {
      ssize_t written = ::write(fd_, p, n);
      if (written <= 0) return -1;
      p += written;
      n -= static_cast<size_t>(written);
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

  int fd_;
  char in_[1 << 16];
  char out_[1 << 16];
};

Status Errno(const std::string& what) {
  return Status(StatusCode::kInternal, what + ": " + std::strerror(errno));
}

}  // namespace

Status ServeUnixSocket(StreamServer& server, const std::string& path,
                       std::ostream& log) {
  std::signal(SIGPIPE, SIG_IGN);  // a client hanging up must not kill the server
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(StatusCode::kInvalidArgument, "socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return Errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // a stale socket from a dead server would fail bind
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind(" + path + ")");
    ::close(listener);
    return status;
  }
  if (::listen(listener, 16) != 0) {
    const Status status = Errno("listen(" + path + ")");
    ::close(listener);
    return status;
  }

  log << "tofu-pland: listening on " << path << std::endl;
  for (;;) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      const Status status = Errno("accept(" + path + ")");
      ::close(listener);
      return status;
    }
    FdStreamBuf buffer(conn);
    std::istream conn_in(&buffer);
    std::ostream conn_out(&buffer);
    const StreamServerMetrics metrics = server.Serve(conn_in, conn_out);
    conn_out.flush();
    ::close(conn);
    log << "tofu-pland: " << metrics.Summary() << std::endl;
  }
}

}  // namespace tofu
