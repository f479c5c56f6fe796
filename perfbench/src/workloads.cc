#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.h"
#include "tofu/core/session.h"
#include "tofu/interconnect/interconnect.h"
#include "tofu/interconnect/sim_bridge.h"
#include "tofu/memory/liveness.h"
#include "tofu/memory/repair.h"
#include "tofu/memory/sim_replay.h"
#include "tofu/models/moe.h"
#include "tofu/models/rnn.h"
#include "tofu/models/transformer.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/baselines.h"
#include "tofu/partition/coarsen.h"
#include "tofu/partition/plan_io.h"
#include "tofu/pipeline/compose.h"
#include "tofu/serve/request.h"
#include "tofu/serve/server.h"
#include "tofu/tdl/registry.h"
#include "tofu/util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using tofu::DeviceTopology;
using tofu::Graph;
using tofu::PartitionAlgorithm;
using tofu::PartitionPlan;
using tofu::PartitionRequest;
using tofu::PartitionResponse;
using tofu::Result;
using tofu::Session;
using tofu::StatusCode;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"serve-zipf", "search-cold", "budget-hybrid"};
  return *names;
}

std::int64_t CountDigestFailures(const ServedDigests& served,
                                 const std::map<std::string, std::string>& reference,
                                 std::vector<std::string>* problems) {
  std::int64_t failed = 0;
  for (const auto& [spec, digests] : served) {
    const auto want = reference.find(spec);
    for (const auto& [digest, count] : digests) {
      if (want != reference.end() && want->second == digest) continue;
      failed += count;
      problems->push_back("plan digest " + digest + " served " + std::to_string(count) +
                          "x differs from a fresh single-threaded search (" +
                          (want == reference.end() ? std::string("no reference plan")
                                                   : want->second) +
                          ") for " + spec);
    }
  }
  return failed;
}

bool StatusAsExpected(bool expect_exhausted, const tofu::Status& status) {
  return expect_exhausted ? status.code() == StatusCode::kResourceExhausted : status.ok();
}

namespace {

// Thread counts are pinned, never sized from the machine: clients x search threads
// stays at 2, within the 4 cores the benchmark is calibrated on.
constexpr int kServeClients = 2;
constexpr int kServeSearchThreads = 1;
constexpr int kSessionSearchThreads = 2;
// A timed phase is cut into rounds: one block of the serve stream (ServeStream::kBlock
// requests, the same spec mix in every block), or one pass of a session workload. The
// phase runs whole rounds until --seconds have passed. Set-up is repeated before every
// round, outside the deadline, and its median reported.
//
// Before timing, a discarded round on throwaway sessions pays the process's one-time
// costs -- heap growth, first-touch pages -- so the timed phase and the traced phase
// after it start from the same process state. The timed phase's plan caches still
// start cold.

double Ms(double seconds) { return seconds * 1e3; }

enum class Outcome { kHit, kMiss, kCoalesced, kError };

struct Sample {
  int round = 0;
  Outcome outcome = Outcome::kError;
  double ms = 0.0;
};

const char* CoreSpanName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHit:
      return "core.hit";
    case Outcome::kMiss:
      return "core.miss";
    case Outcome::kCoalesced:
      return "core.coalesced_wait";
    case Outcome::kError:
      return "core.error";
  }
  return "core.partition";
}

Outcome OutcomeOf(const Result<PartitionResponse>& result) {
  if (!result.ok()) return Outcome::kError;
  if (result->coalesced) return Outcome::kCoalesced;
  return result->from_cache ? Outcome::kHit : Outcome::kMiss;
}

// What one client thread saw during one timed phase.
struct ClientLog {
  std::vector<Sample> samples;  // every recorded request
  int round = 0;                // the round new samples belong to
  std::int64_t requests = 0, failed = 0, hits = 0, misses = 0, coalesced = 0;
  // error_responses: serve responses that were not ok (each a failure); exhausted:
  // expected kResourceExhausted responses of the session workloads' ladders.
  std::int64_t error_responses = 0, exhausted = 0, novel = 0, budgeted = 0, hybrid = 0;
  // Session workloads only: latency per spec and outcome ("<spec> miss" / "<spec> hit").
  std::map<std::string, std::vector<double>> by_spec_ms;
  ServedDigests served;
  // Search effort of every served miss (the response's SearchStats).
  std::vector<double> fill_ms, expand_ms, charge_ms, project_ms;
  double states = 0, entries = 0, reused = 0, memory_pruned = 0, dominated_pruned = 0;
  std::int64_t searched = 0;
  std::vector<std::string> problems;
  std::unique_ptr<SpanLog> log;  // traced phase only

  void Record(Outcome outcome, double latency_s) {
    ++requests;
    samples.push_back({round, outcome, Ms(latency_s)});
    switch (outcome) {
      case Outcome::kHit:
        ++hits;
        break;
      case Outcome::kMiss:
        ++misses;
        break;
      case Outcome::kCoalesced:
        ++coalesced;
        break;
      case Outcome::kError:
        break;
    }
  }

  void RecordSearch(const tofu::SearchStats& stats) {
    ++searched;
    fill_ms.push_back(Ms(stats.fill_seconds));
    expand_ms.push_back(Ms(stats.expand_seconds));
    charge_ms.push_back(Ms(stats.charge_seconds));
    project_ms.push_back(Ms(stats.project_seconds));
    states += static_cast<double>(stats.states_explored);
    entries += static_cast<double>(stats.cost_table_entries);
    reused += static_cast<double>(stats.reused_table_entries);
    memory_pruned += static_cast<double>(stats.memory_pruned_states);
    dominated_pruned += static_cast<double>(stats.dominated_pruned_states);
  }
};

// One timed phase: every client's log plus the counters the sessions kept.
struct Phase {
  std::vector<ClientLog> clients;
  tofu::PlanCacheStats cache;
  tofu::StepTableCache::Stats steps;

  void AddCache(const tofu::PlanCacheStats& stats) {
    cache.hits += stats.hits;
    cache.misses += stats.misses;
    cache.coalesced += stats.coalesced;
    cache.collisions += stats.collisions;
    cache.evictions += stats.evictions;
  }
  void AddSteps(const tofu::StepTableCache::Stats& stats) {
    steps.hits += stats.hits;
    steps.misses += stats.misses;
  }
  template <typename F>
  double Sum(F field) const {
    double total = 0.0;
    for (const ClientLog& c : clients) total += static_cast<double>(field(c));
    return total;
  }
  template <typename F>
  std::vector<double> Concat(F field) const {
    std::vector<double> out;
    for (const ClientLog& c : clients) {
      const std::vector<double>& v = field(c);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  // Latencies (ms) of the requests with `outcome` (every request when empty), in one
  // round or, for round < 0, in the whole phase.
  std::vector<double> Latencies(std::optional<Outcome> outcome, int round = -1) const {
    std::vector<double> ms;
    for (const ClientLog& c : clients) {
      for (const Sample& s : c.samples) {
        if ((round < 0 || s.round == round) && (!outcome || s.outcome == *outcome)) {
          ms.push_back(s.ms);
        }
      }
    }
    return ms;
  }
  // Completed requests per second of busy time, summed over the closed-loop clients.
  // The benchmark's own checks between requests are think time and are not counted.
  double Throughput(int round) const {
    double rps = 0.0;
    for (const ClientLog& c : clients) {
      double busy_ms = 0.0, done = 0.0;
      for (const Sample& s : c.samples) {
        if (s.round != round) continue;
        busy_ms += s.ms;
        ++done;
      }
      if (busy_ms > 0.0) rps += done / (busy_ms * 1e-3);
    }
    return rps;
  }
  // The reported figures. Fixed per workload, never chosen from the data:
  // - throughput: the median over rounds of each round's throughput, so a stall in one
  //   round does not move it.
  // - serve-zipf (by_round): each p50 and tail is computed per block, and the median
  //   over blocks is reported. A block holds 4096 requests of one fixed spec mix, so
  //   its p50 and tail sit at the same rank of the same mix in every block.
  // - session workloads: tails over every sample of the phase. A pass holds a dozen
  //   specs whose times span three orders of magnitude, so the phase's median request
  //   is one fixed spec, whose own noise would be the metric's. The p50 is instead
  //   each spec's median over the phase, combined across specs by the geometric mean
  //   weighted by sample count: a change of x% in every spec moves it by x%, and a
  //   change in one spec moves it in proportion to that spec's share.
  double ReportedThroughput() const {
    std::vector<double> per_round;
    for (int r = 0; r < rounds; ++r) per_round.push_back(Throughput(r));
    return Median(per_round);
  }
  double P50(std::optional<Outcome> outcome) const {
    if (!by_round) return SpecGeometricMean(outcome);
    std::vector<double> per_round;
    for (int r = 0; r < rounds; ++r) per_round.push_back(Median(Latencies(outcome, r)));
    return Median(per_round);
  }
  Tail TailFor(std::optional<Outcome> outcome) const {
    if (!by_round) return TailOf(Latencies(outcome));
    std::vector<Tail> per_round;
    for (int r = 0; r < rounds; ++r) per_round.push_back(TailOf(Latencies(outcome, r)));
    std::sort(per_round.begin(), per_round.end(),
              [](const Tail& a, const Tail& b) { return a.value < b.value; });
    // The upper median: one measured round's tail, with its percentile and count.
    return per_round.empty() ? Tail{} : per_round[per_round.size() / 2];
  }
  // Session workloads: the count-weighted geometric mean of every spec's median
  // latency (both outcomes of each spec when `outcome` is empty).
  double SpecGeometricMean(std::optional<Outcome> outcome) const {
    std::vector<double> medians, counts;
    for (const ClientLog& c : clients) {
      for (const auto& [key, ms] : c.by_spec_ms) {
        const bool hit = key.size() > 4 && key.compare(key.size() - 4, 4, " hit") == 0;
        if (outcome && (*outcome == Outcome::kHit) != hit) continue;
        medians.push_back(Median(ms));
        counts.push_back(static_cast<double>(ms.size()));
      }
    }
    return WeightedGeometricMean(medians, counts);
  }

  int rounds = 0;
  bool by_round = false;
};

// ------------------------------------------------------------------ shadow replay

// Replays Session::SearchAndCache for one miss through the same public layer
// functions, each under its own span, on a step-table cache of the shadow's own that
// sees the same sequence of misses. Its time never counts as request latency. Returns
// false unless the replayed verdict, plan digest and simulator figures equal the
// served ones.
bool ShadowMiss(SpanLog* log, const Graph& graph, const DeviceTopology& topology,
                const PartitionRequest& request, tofu::StepTableCache* step_tables,
                const Result<PartitionResponse>& served) {
  ScopedSpan root(log, "shadow");
  tofu::PartitionOptions options = request.options;
  if (options.step_bandwidths.empty()) {
    if (topology.interconnect != nullptr) {
      ScopedSpan span(log, "interconnect.step_bw");
      options.step_bandwidths = topology.interconnect->StepBandwidths(
          tofu::FactorizeWorkers(topology.num_workers));
    } else {
      options.step_bandwidths = topology.level_bandwidths.empty()
                                    ? std::vector<double>{topology.uniform_bandwidth}
                                    : topology.level_bandwidths;
    }
  }
  if (options.memory_budget_bytes == 0) {
    options.memory_budget_bytes = request.memory_budget_bytes;
  }
  if (options.memory_pricing.host_bandwidth == 0.0) {
    if (topology.interconnect != nullptr) {
      const std::vector<double>& bw = topology.interconnect->links().bandwidth;
      options.memory_pricing.host_bandwidth =
          bw.empty() ? topology.uniform_bandwidth : *std::min_element(bw.begin(), bw.end());
    } else {
      options.memory_pricing.host_bandwidth = topology.BandwidthForStep(0);
    }
  }
  options.dp.step_table_cache = step_tables;

  const int workers = topology.num_workers;
  PartitionPlan plan;
  switch (request.algorithm) {
    case PartitionAlgorithm::kTofu: {
      std::optional<tofu::CoarseGraph> coarse;
      {
        ScopedSpan span(log, "partition.coarsen");
        coarse.emplace(tofu::Coarsen(graph, options.coarsen));
      }
      ScopedSpan span(log, "partition.search");
      plan = tofu::RecursivePartitionCoarse(graph, workers, *coarse, options);
      break;
    }
    case PartitionAlgorithm::kHybrid: {
      ScopedSpan span(log, "pipeline.hybrid");
      tofu::HybridOptions hybrid;
      hybrid.interconnect = topology.interconnect;
      hybrid.fallback_bandwidth = topology.BandwidthForStep(0);
      hybrid.cluster = tofu::K80Cluster();
      plan = tofu::HybridPartition(graph, workers, options, hybrid);
      break;
    }
    default: {
      ScopedSpan span(log, "partition.search");
      switch (request.algorithm) {
        case PartitionAlgorithm::kIcml18:
          plan = tofu::Icml18Plan(graph, workers, options);
          break;
        case PartitionAlgorithm::kEqualChop:
          plan = tofu::EqualChopPlan(graph, workers, options);
          break;
        case PartitionAlgorithm::kSpartan:
          plan = tofu::SpartanGreedyPlan(graph, workers);
          break;
        case PartitionAlgorithm::kAllRowGreedy:
          plan = tofu::AllRowGreedyPlan(graph, workers);
          break;
        default:
          plan = tofu::DataParallelPlan(graph, workers);
          break;
      }
    }
  }

  std::int64_t peak = 0;
  if (plan.pipeline != nullptr) {
    for (const tofu::PipelineStage& stage : plan.pipeline->stages) {
      peak = std::max(peak, stage.peak_bytes);
    }
  } else {
    ScopedSpan span(log, "memory.liveness");
    tofu::AllResidentShardBytes(graph, plan);
    peak = plan.memory_schedule != nullptr ? plan.memory_schedule->scheduled_peak_bytes
                                           : tofu::LivenessPeakShardBytes(graph, plan);
  }
  bool match = true;
  double replay_s = 0.0;
  if (plan.memory_schedule != nullptr && plan.pipeline == nullptr) {
    // The search ran its repair pass internally; re-running it on the plan it repaired
    // times the pass on its own and checks it rebuilds the same schedule.
    PartitionPlan base = plan;
    base.memory_schedule = nullptr;
    tofu::RepairResult repair;
    {
      ScopedSpan span(log, "memory.repair");
      repair = tofu::BuildRepairSchedule(graph, base, options.memory_budget_bytes,
                                         options.memory_policy, options.memory_pricing);
    }
    base.memory_schedule = repair.schedule;
    match = match && repair.feasible && tofu::PlanDigest(base) == tofu::PlanDigest(plan);
    ScopedSpan span(log, "memory.replay");
    replay_s = tofu::SimulateScheduleSeconds(graph, plan, *plan.memory_schedule,
                                             options.memory_pricing);
  }
  double sim_comm_s = 0.0;
  if (topology.interconnect != nullptr && plan.pipeline == nullptr) {
    ScopedSpan span(log, "interconnect.sim_comm");
    sim_comm_s = tofu::SimPlanCommSeconds(*topology.interconnect, plan);
  }

  const bool exhausted = request.memory_budget_bytes > 0 && peak > request.memory_budget_bytes;
  if (!served.ok()) {
    return match && exhausted && served.status().code() == StatusCode::kResourceExhausted;
  }
  return match && !exhausted && tofu::PlanDigest(plan) == tofu::PlanDigest(served->plan) &&
         sim_comm_s == served->simulated_comm_seconds &&
         replay_s == served->simulated_memory_seconds;
}

// After every successful traced request: the two per-plan calls a hit pays for inside
// the session and the serve layer, timed on their own.
void TracePlanCalls(SpanLog* log, const Graph& graph, const PartitionPlan& plan) {
  if (log == nullptr) return;
  {
    ScopedSpan span(log, "partition.validate");
    (void)tofu::ValidatePlanForGraph(graph, plan);
  }
  ScopedSpan span(log, "partition.plan_json");
  (void)tofu::PlanToJson(plan);
}

// ----------------------------------------------------------------- serve-zipf

// PlanService's session routing, rebuilt so a traced run can time each layer of a
// request separately; every session carries the shadow's step-table cache beside it.
class Router {
 public:
  explicit Router(tofu::PlanServiceOptions options) : options_(options) {}

  struct Entry {
    std::unique_ptr<Session> session;
    std::unique_ptr<tofu::StepTableCache> shadow_steps;
  };

  Entry& For(const DeviceTopology& topology) {
    const std::string fingerprint = topology.Fingerprint();
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[fingerprint];
    if (entry.session == nullptr) {
      entry.session = std::make_unique<Session>(topology, options_.max_cached_plans,
                                                options_.cache_shards);
      entry.shadow_steps = std::make_unique<tofu::StepTableCache>();
    }
    return entry;
  }

  void AddCounters(Phase* phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fingerprint, entry] : entries_) {
      phase->AddCache(entry.session->cache_stats());
      phase->AddSteps(entry.session->step_table_cache_stats());
    }
  }

 private:
  tofu::PlanServiceOptions options_;
  mutable std::mutex mu_;  // guards entries_ (the map; entries are never erased)
  std::unordered_map<std::string, Entry> entries_;
};

bool HasFlag(const std::string& line, const char* flag, std::size_t limit) {
  const std::size_t at = line.find(flag);
  return at != std::string::npos && at < limit;
}

// The request line without its "id" member: the distinct-spec key and a valid request.
std::string SpecKey(const std::string& line) {
  return "{" + line.substr(line.find(',') + 1);
}

struct ServeSetup {
  std::unique_ptr<ServeStream> stream;
};

ServeSetup SetupServe(std::uint64_t seed) {
  ServeSetup setup;
  tofu::OpRegistry::Get();
  setup.stream = std::make_unique<ServeStream>(seed);
  // Every catalogue spec must parse and build, or the stream would carry failures.
  for (const std::string& line : ServeStream::Catalogue()) {
    Result<tofu::ServeRequest> request = tofu::ParseServeRequest(line);
    if (!request.ok() || !tofu::BuildServeModel(*request).ok()) {
      setup.stream.reset();
      break;
    }
  }
  return setup;
}

// One serve client's request path and checks. Untraced, a request is one
// HandleServeLine call on the service. Traced, it is HandleServeLine's steps -- parse,
// model build, session, render -- one span each on the router; then, after the request's
// latency is taken, the per-plan calls and, for a miss, the shadow replay.
class ServeClient {
 public:
  ServeClient(tofu::PlanService* service, Router* router, ClientLog* out)
      : service_(service), router_(router), out_(out), log_(out->log.get()) {}

  // Serves `line` (whose id is `id`) and checks the response. Only recorded requests
  // count in the client's latencies and shares; every response is checked.
  void Serve(const std::string& line, std::uint64_t id, bool novel, bool record) {
    std::string response;
    const auto t0 = Clock::now();
    Clock::time_point done;
    if (router_ == nullptr) {
      response = tofu::HandleServeLine(*service_, line, /*include_plan=*/true);
      done = Clock::now();
    } else {
      response = TracedServe(line, id, t0, &done);
    }
    Check(line, id, response, record ? SecondsBetween(t0, done) : -1.0, novel);
  }

 private:
  // Sets `done` when the response is rendered, so traced and untraced latencies cover
  // the same work; the per-plan calls and the shadow replay run after that.
  std::string TracedServe(const std::string& line, std::uint64_t id, Clock::time_point t0,
                          Clock::time_point* done) {
    log_->set_request(static_cast<std::int64_t>(id));
    std::optional<Result<tofu::ServeRequest>> request;
    std::optional<Result<tofu::ModelGraph>> model;
    std::optional<Result<PartitionResponse>> result;
    PartitionRequest partition;
    Router::Entry* entry = nullptr;
    std::string response;
    {
      ScopedSpan root(log_, "request");
      {
        ScopedSpan span(log_, "serve.parse");
        request.emplace(tofu::ParseServeRequest(line));
      }
      if (request->ok()) {
        {
          ScopedSpan span(log_, "models.build");
          model.emplace(tofu::BuildServeModel(**request));
        }
        if (model->ok()) {
          partition.graph = &(*model)->graph;
          partition.algorithm = (*request)->algorithm;
          partition.memory_budget_bytes = (*request)->memory_budget_bytes;
          partition.options.memory_policy = (*request)->memory_policy;
          partition.options.dp.num_threads = kServeSearchThreads;
          entry = &router_->For((*request)->topology);
          ScopedSpan span(log_, "core.partition");
          result.emplace(entry->session->Partition(partition));
          span.Rename(CoreSpanName(OutcomeOf(*result)));
        } else {
          result.emplace(model->status());
        }
        ScopedSpan span(log_, "serve.render");
        response = tofu::ServeResponseLine(**request, *result, SecondsBetween(t0, Clock::now()),
                                           /*include_plan=*/true);
      }
    }
    *done = Clock::now();
    if (!request->ok() || !result->ok()) return response;
    TracePlanCalls(log_, *partition.graph, (*result)->plan);
    if (OutcomeOf(*result) == Outcome::kMiss) {
      out_->RecordSearch((*result)->search_stats);
      if (!ShadowMiss(log_, *partition.graph, (*request)->topology, partition,
                      entry->shadow_steps.get(), *result)) {
        ++out_->failed;
        out_->problems.push_back("shadow replay diverged from the served plan for " + line);
      }
    }
    return response;
  }

  // A negative latency marks an unrecorded (warm-up) request: checked, not counted.
  void Check(const std::string& line, std::uint64_t id, const std::string& response,
             double latency_s, bool novel) {
    const std::size_t plan_at = response.find(",\"plan\":");
    const std::size_t head = plan_at == std::string::npos ? response.size() : plan_at;
    const bool ok = HasFlag(response, "\"ok\":true", head) &&
                    HasFlag(response, ("\"id\":" + std::to_string(id) + ",").c_str(), head);
    if (latency_s >= 0.0) {
      Outcome outcome = Outcome::kError;
      if (ok) {
        outcome = HasFlag(response, "\"coalesced\":true", head)    ? Outcome::kCoalesced
                  : HasFlag(response, "\"from_cache\":true", head) ? Outcome::kHit
                                                                   : Outcome::kMiss;
      }
      out_->Record(outcome, latency_s);
      if (novel) ++out_->novel;
      if (line.find("memory_budget_bytes") != std::string::npos) ++out_->budgeted;
      if (line.find("\"Hybrid\"") != std::string::npos) ++out_->hybrid;
    }
    if (!ok || plan_at == std::string::npos) {
      ++out_->error_responses;
      ++out_->failed;
      out_->problems.push_back("unexpected response for " + line + ": " +
                               response.substr(0, 300));
      return;
    }
    const std::string key = SpecKey(line);
    const std::string plan_json = response.substr(plan_at + 8, response.size() - plan_at - 9);
    std::string& digest = checked_[key][std::hash<std::string>{}(plan_json)];
    if (digest.empty()) {
      Result<PartitionPlan> plan = tofu::PlanFromJson(plan_json);
      digest = plan.ok() ? tofu::PlanDigest(*plan) : "unparseable plan JSON";
    }
    ++out_->served[key][digest];
  }

  tofu::PlanService* service_;
  Router* router_;
  ClientLog* out_;
  SpanLog* log_;
  // Plan JSON already checked, per spec: hash -> digest (a hit re-serves the same bytes).
  std::map<std::string, std::map<std::size_t, std::string>> checked_;
};

// The catalogue is planned once on the phase's service before the clock starts, so the
// timed stream sees a daemon in steady state: catalogue specs hit, novel specs miss.
// (Those cold misses are one-off per process and would otherwise set every tail.)
// Each block of the stream is one round; `before_round` runs with the clients stopped,
// before each. Whole blocks only, at least one.
Phase RunServePhase(const ServeStream& stream, double seconds, bool traced,
                    const std::function<void()>& before_round) {
  tofu::PlanServiceOptions options;
  options.search_threads = kServeSearchThreads;
  tofu::PlanService service(options);
  Router router(options);
  Phase phase;
  phase.clients.resize(kServeClients);
  std::vector<ServeClient> clients;
  for (ClientLog& log : phase.clients) {
    if (traced) log.log = std::make_unique<SpanLog>();
    clients.emplace_back(&service, traced ? &router : nullptr, &log);
  }
  const std::vector<std::string>& catalogue = ServeStream::Catalogue();
  for (std::size_t k = 0; k < catalogue.size(); ++k) {
    const std::uint64_t id = ServeStream::kWarmupIds + k;
    clients[0].Serve(ServeStream::Line(id, catalogue[k]), id, false, /*record=*/false);
  }

  phase.by_round = true;
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  for (int round = 0; round == 0 || Clock::now() < deadline; ++round) {
    if (before_round) {
      // Repeated set-ups do not use up the timed phase's rounds.
      const auto t0 = Clock::now();
      before_round();
      deadline += Clock::now() - t0;
    }
    for (ClientLog& log : phase.clients) log.round = round;
    phase.rounds = round + 1;
    const std::uint64_t end = static_cast<std::uint64_t>(round + 1) * ServeStream::kBlock;
    std::atomic<std::uint64_t> next{end - ServeStream::kBlock};
    auto run = [&](ServeClient* client) {
      for (std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed); index < end;
           index = next.fetch_add(1, std::memory_order_relaxed)) {
        const ServeDraw draw = stream.At(index);
        client->Serve(draw.line, index, draw.spec < 0, /*record=*/true);
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < clients.size(); ++c) threads.emplace_back(run, &clients[c]);
    run(&clients[0]);
    for (std::thread& t : threads) t.join();
  }
  if (traced) {
    router.AddCounters(&phase);
  } else {
    phase.AddCache(service.cache_stats());
  }
  return phase;
}

// Reference plans for the serve workload: every distinct spec served, plus the whole
// catalogue, planned on a fresh service with one search thread. plan_cost_s sums over
// the catalogue only, so it does not depend on which novel specs a seed drew.
struct Reference {
  std::map<std::string, std::string> digests;
  double plan_cost_s = 0.0;
};

Reference ServeReference(const std::vector<const ServedDigests*>& served,
                         std::vector<std::string>* problems) {
  tofu::PlanServiceOptions options;
  options.search_threads = 1;
  tofu::PlanService fresh(options);
  Reference reference;
  std::map<std::string, bool> keys;  // key -> in catalogue
  for (const std::string& line : ServeStream::Catalogue()) keys[line] = true;
  for (const ServedDigests* s : served) {
    for (const auto& [key, digests] : *s) keys.emplace(key, false);
  }
  for (const auto& [key, in_catalogue] : keys) {
    Result<tofu::ServeRequest> request = tofu::ParseServeRequest(key);
    Result<PartitionResponse> response =
        request.ok() ? fresh.Partition(*request) : Result<PartitionResponse>(request.status());
    if (!response.ok()) {
      problems->push_back("reference search failed for " + key + ": " +
                          response.status().ToString());
      continue;
    }
    reference.digests[key] = tofu::PlanDigest(response->plan);
    if (in_catalogue) {
      reference.plan_cost_s +=
          response->estimated_comm_seconds + response->memory_overhead_seconds;
    }
  }
  return reference;
}

// --------------------------------------------------------- session workloads

struct SessionSpec {
  std::string name;
  const Graph* graph = nullptr;
  int topology = 0;
  PartitionAlgorithm algorithm = PartitionAlgorithm::kTofu;
  std::int64_t budget = 0;
  bool expect_exhausted = false;
};

struct SessionWorkload {
  std::deque<tofu::ModelGraph> models;  // deque: specs point into it
  std::vector<DeviceTopology> topologies;
  std::vector<SessionSpec> specs;
  // Planned first on every pass, untimed and unchecked against a reference.
  std::vector<SessionSpec> primers;
  int asks = 2;  // times each spec is asked per pass; the first is the cold miss
  // The untraced phase runs at least this many passes, past --seconds on a slow host: a
  // whole-phase miss tail (ten samples beyond it) stays inside the slowest specs'
  // cluster only while that cluster, one miss per spec and pass, holds more than ten.
  std::uint64_t min_timed_passes = 1;

  const Graph* Build(SpanLog* log, const std::function<tofu::ModelGraph()>& builder) {
    ScopedSpan span(log, "models.build");
    models.push_back(builder());
    return &models.back().graph;
  }
};

constexpr double kHopLatency = 15e-6;

tofu::WResNetConfig WResNet152() {
  tofu::WResNetConfig config;
  config.layers = 152;
  config.width = 10;
  config.batch = 8;
  return config;
}

tofu::RnnConfig Rnn10() {
  tofu::RnnConfig config;
  config.layers = 10;
  config.hidden = 8192;
  config.batch = 128;
  return config;
}

// The paper's Table 1 graphs through the API, on uniform and non-uniform interconnects.
SessionWorkload SetupSearchCold(SpanLog* log) {
  SessionWorkload w;
  w.min_timed_passes = 11;  // Transformer-48 alone is the slowest miss
  w.topologies = {
      DeviceTopology::Uniform(8), DeviceTopology::Uniform(64),
      DeviceTopology::WithInterconnect(tofu::MakeRing(8, 21e9, kHopLatency)),
      DeviceTopology::WithInterconnect(tofu::MakeHierarchy(2, 4, 21e9, 10e9, kHopLatency))};
  const Graph* wresnet = w.Build(log, [] { return tofu::BuildWResNet(WResNet152()); });
  const Graph* rnn = w.Build(log, [] { return tofu::BuildRnn(Rnn10()); });
  const Graph* transformer = w.Build(log, [] {
    tofu::TransformerConfig config;
    config.layers = 48;
    return tofu::BuildTransformer(config);
  });
  w.specs = {{"WResNet-152-10@uniform8", wresnet, 0},
             {"WResNet-152-10@uniform64", wresnet, 1},
             {"RNN-10-8K@uniform8", rnn, 0},
             {"Transformer-48@uniform64", transformer, 1},
             {"WResNet-152-10@ring8", wresnet, 2},
             {"WResNet-152-10@hier2x4", wresnet, 3},
             {"RNN-10-8K@hier2x4", rnn, 3}};
  return w;
}

// Budget ladders pinned to bench/baseline_table1.json's frontier rows (the last rung
// of each sits below the full-offload floor), and one hybrid plan on a multi-node
// hierarchy with slow uplinks.
//
// Each pass first plans both ladder models without a budget, untimed: a launcher
// walking a budget ladder has planned the model before, so every rung reads the
// step-table cache warm, whatever the seeded order. Each spec is asked four times, so
// the hit clusters are large enough for the hit tail to fall inside one.
SessionWorkload SetupBudgetHybrid(SpanLog* log) {
  SessionWorkload w;
  w.asks = 4;
  w.min_timed_passes = 4;  // the hybrid plan and the two lowest halo rungs, ~1 s each
  w.topologies = {DeviceTopology::FromCluster(tofu::K80Cluster()),
                  DeviceTopology::WithInterconnect(
                      tofu::MakeHierarchy(4, 8, 21e9, 2.5e9, kHopLatency))};
  const Graph* moe = w.Build(log, [] { return tofu::BuildMoe(tofu::MoeConfig()); });
  const Graph* halo = w.Build(log, [] {
    tofu::WResNetConfig config;
    config.layers = 50;
    config.width = 4;
    config.batch = 4;
    config.image = 448;
    return tofu::BuildWResNet(config);
  });
  const Graph* transformer = w.Build(log, [] {
    tofu::TransformerConfig config;
    config.layers = 24;
    return tofu::BuildTransformer(config);
  });
  const std::pair<const char*, const Graph*> models[] = {{"MoE-4x4096", moe},
                                                         {"WResNet-50-halo", halo}};
  const std::vector<std::int64_t> ladders[] = {
      {50888969, 39739591, 28590213, 17440835, 6291456, 3145728},
      {1444174073, 1102398139, 760622205, 418846271, 77070336, 38535168}};
  for (int m = 0; m < 2; ++m) {
    w.primers.push_back({std::string(models[m].first) + "@unbudgeted", models[m].second, 0});
    const std::vector<std::int64_t>& ladder = ladders[m];
    for (std::size_t rung = 0; rung < ladder.size(); ++rung) {
      SessionSpec spec;
      spec.name = std::string(models[m].first) + "@budget" + std::to_string(ladder[rung]);
      spec.graph = models[m].second;
      spec.budget = ladder[rung];
      spec.expect_exhausted = rung + 1 == ladder.size();
      w.specs.push_back(spec);
    }
  }
  SessionSpec hybrid;
  hybrid.name = "Transformer-24@hybrid-hier4x8";
  hybrid.graph = transformer;
  hybrid.topology = 1;
  hybrid.algorithm = PartitionAlgorithm::kHybrid;
  w.specs.push_back(hybrid);
  return w;
}

PartitionRequest RequestFor(const SessionSpec& spec, int search_threads) {
  PartitionRequest request;
  request.graph = spec.graph;
  request.algorithm = spec.algorithm;
  request.memory_budget_bytes = spec.budget;
  request.options.dp.num_threads = search_threads;
  return request;
}

// Each pass is one round; `before_round` runs before it. Whole passes only, so every
// spec is sampled equally often: at least `min_passes`, then until `seconds` are up.
Phase RunSessionPhase(const SessionWorkload& w, std::uint64_t seed, double seconds,
                      std::uint64_t min_passes, bool traced,
                      const std::function<void()>& before_round) {
  Phase phase;
  phase.clients.resize(1);
  ClientLog& out = phase.clients[0];
  if (traced) out.log = std::make_unique<SpanLog>();
  SpanLog* log = out.log.get();
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  std::int64_t request_id = 0;
  for (std::uint64_t pass = 0; pass < min_passes || Clock::now() < deadline; ++pass) {
    if (before_round) {
      // Repeated set-ups do not use up the timed phase's passes.
      const auto t0 = Clock::now();
      before_round();
      deadline += Clock::now() - t0;
    }
    out.round = phase.rounds++;
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<std::unique_ptr<tofu::StepTableCache>> shadow_steps;
    for (const DeviceTopology& topology : w.topologies) {
      sessions.push_back(std::make_unique<Session>(topology));
      shadow_steps.push_back(std::make_unique<tofu::StepTableCache>());
    }
    for (const SessionSpec& primer : w.primers) {
      const std::size_t t = static_cast<std::size_t>(primer.topology);
      const PartitionRequest request = RequestFor(primer, kSessionSearchThreads);
      const Result<PartitionResponse> result = sessions[t]->Partition(request);
      // The shadow's step-table cache sees the same misses, untimed too.
      if (!result.ok() ||
          (traced && !ShadowMiss(nullptr, *primer.graph, sessions[t]->topology(), request,
                                 shadow_steps[t].get(), result))) {
        ++out.failed;
        out.problems.push_back(primer.name + ": priming request failed or diverged");
      }
    }
    for (int s : PassOrder(static_cast<int>(w.specs.size()), w.asks, seed, pass)) {
      const SessionSpec& spec = w.specs[static_cast<std::size_t>(s)];
      Session& session = *sessions[static_cast<std::size_t>(spec.topology)];
      const PartitionRequest request = RequestFor(spec, kSessionSearchThreads);
      if (log != nullptr) log->set_request(request_id);
      ++request_id;
      const tofu::PlanCacheStats before = session.cache_stats();
      std::optional<Result<PartitionResponse>> result;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(log, "core.partition");
        result.emplace(session.Partition(request));
        span.Rename(CoreSpanName(OutcomeOf(*result)));
      }
      const double latency_s = SecondsBetween(t0, Clock::now());
      // One client: the counter deltas classify error responses too.
      const tofu::PlanCacheStats after = session.cache_stats();
      const Outcome outcome = after.hits > before.hits ? Outcome::kHit
                              : after.coalesced > before.coalesced ? Outcome::kCoalesced
                                                                   : Outcome::kMiss;
      out.Record(outcome, latency_s);
      out.by_spec_ms[spec.name + (outcome == Outcome::kHit ? " hit" : " miss")].push_back(
          Ms(latency_s));
      if (spec.budget > 0) ++out.budgeted;
      if (spec.algorithm == PartitionAlgorithm::kHybrid) ++out.hybrid;
      if (!StatusAsExpected(spec.expect_exhausted, result->status())) {
        ++out.failed;
        out.problems.push_back(spec.name + ": unexpected status " +
                               result->status().ToString());
        continue;
      }
      if (result->ok()) {
        ++out.served[spec.name][tofu::PlanDigest((*result)->plan)];
      } else {
        ++out.exhausted;
      }
      if (log == nullptr) continue;
      if (result->ok()) TracePlanCalls(log, *spec.graph, (*result)->plan);
      if (outcome != Outcome::kMiss) continue;
      if (result->ok()) out.RecordSearch((*result)->search_stats);
      if (!ShadowMiss(log, *spec.graph, session.topology(), request,
                      shadow_steps[static_cast<std::size_t>(spec.topology)].get(),
                      *result)) {
        ++out.failed;
        out.problems.push_back("shadow replay diverged from the served result for " +
                               spec.name);
      }
    }
    for (const std::unique_ptr<Session>& session : sessions) {
      phase.AddCache(session->cache_stats());
      phase.AddSteps(session->step_table_cache_stats());
    }
  }
  return phase;
}

// Fresh single-threaded sessions, one per topology: each spec's reference digest and
// expected status, and plan_cost_s over the feasible specs.
Reference SessionReference(const SessionWorkload& w, std::int64_t* failed,
                           std::vector<std::string>* problems) {
  std::vector<std::unique_ptr<Session>> sessions;
  for (const DeviceTopology& topology : w.topologies) {
    sessions.push_back(std::make_unique<Session>(topology));
  }
  Reference reference;
  for (const SessionSpec& spec : w.specs) {
    Result<PartitionResponse> response =
        sessions[static_cast<std::size_t>(spec.topology)]->Partition(RequestFor(spec, 1));
    if (!StatusAsExpected(spec.expect_exhausted, response.status())) {
      ++*failed;
      problems->push_back(spec.name + ": reference search returned " +
                          response.status().ToString());
    }
    if (!response.ok()) continue;
    reference.digests[spec.name] = tofu::PlanDigest(response->plan);
    reference.plan_cost_s +=
        response->estimated_comm_seconds + response->memory_overhead_seconds;
  }
  return reference;
}

// ------------------------------------------------------------------- reporting

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
}

void WriteTail(tofu::JsonWriter* w, const char* key, const Phase& phase,
               std::optional<Outcome> outcome) {
  const Tail tail = phase.TailFor(outcome);
  w->Key(key).BeginObject();
  w->Key("p50_ms").Number(phase.P50(outcome));
  w->Key("tail_ms").Number(tail.value);
  w->Key("tail_percentile").Number(tail.percentile);
  w->Key("samples").Int(static_cast<std::int64_t>(tail.samples));
  w->Key("beyond_tail").Int(static_cast<std::int64_t>(tail.beyond));
  w->EndObject();
}

void WriteShare(tofu::JsonWriter* w, const char* key, double count, double base) {
  w->Key(key).BeginObject();
  w->Key("count").Number(count);
  w->Key("base").Number(base);
  w->Key("share").Number(base > 0 ? count / base : 0.0);
  w->EndObject();
}

void AddEndToEnd(const Phase& phase, double setup_s, double rss_mib, RunResult* result) {
  result->metrics = {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", phase.ReportedThroughput(), "1/s"},
      {"latency_p50_ms", phase.P50(std::nullopt), "ms"},
      {"latency_tail_ms", phase.TailFor(std::nullopt).value, "ms"},
      {"hit_p50_ms", phase.P50(Outcome::kHit), "ms"},
      {"hit_tail_ms", phase.TailFor(Outcome::kHit).value, "ms"},
      {"miss_p50_ms", phase.P50(Outcome::kMiss), "ms"},
      {"miss_tail_ms", phase.TailFor(Outcome::kMiss).value, "ms"},
      {"peak_rss_mb", rss_mib, "MiB"},
  };
}

void AddPerLayer(const Phase& traced, double untraced_rps, RunResult* result,
                 tofu::JsonWriter* details) {
  std::vector<const SpanLog*> logs;
  for (const ClientLog& c : traced.clients) logs.push_back(c.log.get());
  const std::map<std::string, std::vector<double>> self = SelfTimesByName(logs);
  auto p50 = [&self](const char* span, double scale) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : Median(it->second) * scale;
  };
  constexpr double kUs = 1e-3;
  constexpr double kMsPerNs = 1e-6;
  const double searched = traced.Sum([](const ClientLog& c) { return c.searched; });
  auto per_miss = [&](double ClientLog::*field) {
    return searched > 0 ? traced.Sum([field](const ClientLog& c) { return c.*field; }) / searched
                        : 0.0;
  };
  auto median_of = [&](std::vector<double> ClientLog::*field) {
    return Median(traced.Concat([field](const ClientLog& c) -> auto& { return c.*field; }));
  };
  const double validated =
      static_cast<double>(traced.cache.hits + traced.cache.misses + traced.cache.coalesced);
  const double entries = traced.Sum([](const ClientLog& c) { return c.entries; });
  const double reused = traced.Sum([](const ClientLog& c) { return c.reused; });
  result->metrics = {
      {"serve.parse_us", p50("serve.parse", kUs), "us"},
      {"serve.render_us", p50("serve.render", kUs), "us"},
      {"serve.errors", traced.Sum([](const ClientLog& c) { return c.error_responses; }), "count"},
      {"models.build_ms", p50("models.build", kMsPerNs), "ms"},
      {"core.hit_us", p50("core.hit", kUs), "us"},
      {"core.miss_ms", p50("core.miss", kMsPerNs), "ms"},
      {"core.coalesced_wait_ms", p50("core.coalesced_wait", kMsPerNs), "ms"},
      {"core.hits", static_cast<double>(traced.cache.hits), "count"},
      {"core.misses", static_cast<double>(traced.cache.misses), "count"},
      {"core.coalesced", static_cast<double>(traced.cache.coalesced), "count"},
      {"core.evictions", static_cast<double>(traced.cache.evictions), "count"},
      {"core.collisions", static_cast<double>(traced.cache.collisions), "count"},
      {"core.hit_ratio", validated > 0 ? static_cast<double>(traced.cache.hits) / validated : 0.0,
       "ratio"},
      {"core.step_table_hits", static_cast<double>(traced.steps.hits), "count"},
      {"core.step_table_misses", static_cast<double>(traced.steps.misses), "count"},
      {"partition.coarsen_ms", p50("partition.coarsen", kMsPerNs), "ms"},
      {"partition.search_ms", p50("partition.search", kMsPerNs), "ms"},
      {"partition.fill_ms", median_of(&ClientLog::fill_ms), "ms"},
      {"partition.expand_ms", median_of(&ClientLog::expand_ms), "ms"},
      {"partition.charge_ms", median_of(&ClientLog::charge_ms), "ms"},
      {"partition.project_ms", median_of(&ClientLog::project_ms), "ms"},
      {"partition.states_explored", per_miss(&ClientLog::states), "count"},
      {"partition.cost_table_entries", per_miss(&ClientLog::entries), "count"},
      {"partition.reused_table_entries", per_miss(&ClientLog::reused), "count"},
      {"partition.memory_pruned_states", per_miss(&ClientLog::memory_pruned), "count"},
      {"partition.dominated_pruned_states", per_miss(&ClientLog::dominated_pruned), "count"},
      {"partition.table_reuse_ratio", entries > 0 ? reused / entries : 0.0, "ratio"},
      {"partition.validate_us", p50("partition.validate", kUs), "us"},
      {"partition.plan_json_us", p50("partition.plan_json", kUs), "us"},
      {"interconnect.step_bw_us", p50("interconnect.step_bw", kUs), "us"},
      {"interconnect.sim_comm_ms", p50("interconnect.sim_comm", kMsPerNs), "ms"},
      {"pipeline.hybrid_ms", p50("pipeline.hybrid", kMsPerNs), "ms"},
      {"memory.liveness_ms", p50("memory.liveness", kMsPerNs), "ms"},
      {"memory.repair_ms", p50("memory.repair", kMsPerNs), "ms"},
      {"memory.replay_ms", p50("memory.replay", kMsPerNs), "ms"},
      {"trace.overhead_rps", traced.ReportedThroughput() - untraced_rps, "1/s"},
  };

  details->Key("table_reuse").BeginObject();
  details->Key("reused_entries").Number(reused);
  details->Key("base_entries").Number(entries);
  details->EndObject();
  details->Key("tracing_overhead").BeginObject();
  details->Key("untraced_rps").Number(untraced_rps);
  details->Key("traced_rps").Number(traced.ReportedThroughput());
  details->Key("overhead_rps").Number(traced.ReportedThroughput() - untraced_rps);
  details->EndObject();
  // Self time per span name: calls, p50 and total (ms), and share of all self time.
  double total_ns = 0.0;
  for (const auto& [name, times] : self) {
    for (double t : times) total_ns += t;
  }
  details->Key("layers").BeginArray();
  for (const auto& [name, times] : self) {
    double sum = 0.0;
    for (double t : times) sum += t;
    details->BeginObject();
    details->Key("span").String(name);
    details->Key("calls").Int(static_cast<std::int64_t>(times.size()));
    details->Key("self_p50_ms").Number(Median(times) * kMsPerNs);
    details->Key("self_total_ms").Number(sum * kMsPerNs);
    details->Key("self_share").Number(total_ns > 0 ? sum / total_ns : 0.0);
    details->EndObject();
  }
  details->EndArray();
  std::int64_t dropped = 0;
  for (const SpanLog* log : logs) dropped += log->dropped();
  details->Key("spans_dropped").Int(dropped);
}

void AddPhaseDetails(const Phase& phase, tofu::JsonWriter* w) {
  const double requests = phase.Sum([](const ClientLog& c) { return c.requests; });
  w->Key("shares").BeginObject();
  WriteShare(w, "hit", phase.Sum([](const ClientLog& c) { return c.hits; }), requests);
  WriteShare(w, "miss", phase.Sum([](const ClientLog& c) { return c.misses; }), requests);
  WriteShare(w, "coalesced", phase.Sum([](const ClientLog& c) { return c.coalesced; }),
             requests);
  WriteShare(w, "novel_spec", phase.Sum([](const ClientLog& c) { return c.novel; }), requests);
  WriteShare(w, "budgeted", phase.Sum([](const ClientLog& c) { return c.budgeted; }), requests);
  WriteShare(w, "hybrid", phase.Sum([](const ClientLog& c) { return c.hybrid; }), requests);
  WriteShare(w, "error_response",
             phase.Sum([](const ClientLog& c) { return c.error_responses; }), requests);
  WriteShare(w, "exhausted", phase.Sum([](const ClientLog& c) { return c.exhausted; }),
             requests);
  w->EndObject();
  w->Key("rounds").Int(phase.rounds);
  w->Key("per_round").Bool(phase.by_round);
  w->Key("latency").BeginObject();
  WriteTail(w, "all", phase, std::nullopt);
  WriteTail(w, "hit", phase, Outcome::kHit);
  WriteTail(w, "miss", phase, Outcome::kMiss);
  w->EndObject();
  w->Key("spec_p50_ms").BeginObject();
  for (const ClientLog& c : phase.clients) {
    for (const auto& [spec, ms] : c.by_spec_ms) w->Key(spec).Number(Median(ms));
  }
  w->EndObject();
}

void WriteEnv(const RunOptions& options, int clients, int search_threads,
              tofu::JsonWriter* w) {
  w->Key("env").BeginObject();
  w->Key("nproc").Int(Nproc());
  w->Key("hardware_concurrency").Int(std::thread::hardware_concurrency());
  w->Key("build_type").String(PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  w->Key("compiler").String(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w->Key("compiler").String(std::string("gcc ") + __VERSION__);
#else
  w->Key("compiler").String("unknown");
#endif
  w->Key("clients").Int(clients);
  w->Key("search_threads").Int(search_threads);
  w->Key("workload").String(options.workload);
  w->Key("seed").Int(static_cast<std::int64_t>(options.seed));
  w->Key("seconds").Number(options.seconds);
  w->Key("trace").Bool(options.trace);
  w->EndObject();
}

// Runs `setup` and appends its wall time to `seconds`.
template <typename Setup>
auto Timed(std::vector<double>* seconds, const Setup& setup) {
  const auto t0 = Clock::now();
  auto made = setup();
  seconds->push_back(SecondsBetween(t0, Clock::now()));
  return made;
}

}  // namespace

RunResult RunBenchmark(const RunOptions& options) {
  RunResult result;
  const bool serve = options.workload == "serve-zipf";
  if (!serve && options.workload != "search-cold" && options.workload != "budget-hybrid") {
    result.correct = false;
    result.problems.push_back("unknown workload '" + options.workload + "'");
    return result;
  }
  tofu::JsonWriter details;
  details.BeginObject();
  WriteEnv(options, serve ? kServeClients : 1,
           serve ? kServeSearchThreads : kSessionSearchThreads, &details);

  Phase untraced;
  std::optional<Phase> traced;
  Reference reference;
  std::vector<double> setup_seconds;  // the first set-up, then one before every round
  double rss_mib = 0.0;
  std::vector<const ServedDigests*> served;
  if (serve) {
    auto setup = [&] { return SetupServe(options.seed); };
    const ServeSetup kept = Timed(&setup_seconds, setup);
    if (kept.stream == nullptr) {
      result.correct = false;
      result.problems.push_back("a serve catalogue spec does not parse or build");
      return result;
    }
    RunServePhase(*kept.stream, /*seconds=*/0.0, /*traced=*/false, nullptr);  // one block
    untraced = RunServePhase(*kept.stream, options.seconds, /*traced=*/false,
                             [&] { Timed(&setup_seconds, setup); });
    rss_mib = PeakRssMiB();
    // The traced phase repeats set-up between rounds too, untimed, so both phases do
    // the same work around their requests.
    if (options.trace) {
      traced = RunServePhase(*kept.stream, options.seconds, true, [&] { (void)setup(); });
    }
  } else {
    // Set-up builds are the only model builds of these workloads, so traced runs time
    // the first set-up's builds as the models layer.
    SpanLog setup_log;
    const bool cold = options.workload == "search-cold";
    auto setup = [cold](SpanLog* log) {
      return cold ? SetupSearchCold(log) : SetupBudgetHybrid(log);
    };
    const SessionWorkload w = Timed(&setup_seconds, [&] {
      return setup(options.trace ? &setup_log : nullptr);
    });
    RunSessionPhase(w, options.seed, /*seconds=*/0.0, 1, false, nullptr);  // warm-up pass
    untraced = RunSessionPhase(w, options.seed, options.seconds, w.min_timed_passes, false,
                               [&] { Timed(&setup_seconds, [&] { return setup(nullptr); }); });
    rss_mib = PeakRssMiB();
    if (options.trace) {
      traced = RunSessionPhase(w, options.seed, options.seconds, 1, true,
                               [&] { (void)setup(nullptr); });
      traced->clients.emplace_back();
      traced->clients.back().log = std::make_unique<SpanLog>(std::move(setup_log));
    }
    reference = SessionReference(w, &result.failed, &result.problems);
  }
  for (Phase* phase : {&untraced, traced ? &*traced : nullptr}) {
    if (phase == nullptr) continue;
    for (ClientLog& c : phase->clients) {
      result.attempted += c.requests;
      result.failed += c.failed;
      result.problems.insert(result.problems.end(), c.problems.begin(), c.problems.end());
      served.push_back(&c.served);
    }
  }
  if (serve) reference = ServeReference(served, &result.problems);
  for (const ServedDigests* s : served) {
    result.failed += CountDigestFailures(*s, reference.digests, &result.problems);
  }

  result.plan_cost_s = reference.plan_cost_s;
  AddPhaseDetails(untraced, &details);
  details.Key("setup_repeats").Int(static_cast<std::int64_t>(setup_seconds.size()));
  // Only the first set-up pays the process-wide registry init; setup_s is the median.
  details.Key("setup_first_s").Number(setup_seconds.front());
  details.Key("failed_frac").Number(result.FailedFrac());
  details.Key("plan_cost_s").Number(result.plan_cost_s);
  details.Key("plan_cost_specs").Int(static_cast<std::int64_t>(
      serve ? ServeStream::Catalogue().size() : reference.digests.size()));
  if (traced) {
    AddPerLayer(*traced, untraced.ReportedThroughput(), &result, &details);
    if (!options.spans_out.empty()) {
      std::vector<const SpanLog*> logs;
      for (const ClientLog& c : traced->clients) logs.push_back(c.log.get());
      if (!WriteSpans(options.spans_out, logs)) {
        result.problems.push_back("cannot write spans to " + options.spans_out);
        ++result.failed;
      }
    }
  } else {
    AddEndToEnd(untraced, Median(setup_seconds), rss_mib, &result);
  }
  details.EndObject();
  result.details = details.str();
  result.correct = result.failed == 0 && result.problems.empty() && result.attempted > 0;
  return result;
}

}  // namespace perfbench
