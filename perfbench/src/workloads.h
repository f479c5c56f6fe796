// The three planner workloads and the checks that make their numbers trustworthy.
//
//   serve-zipf     2 clients x HandleServeLine on one PlanService (1 search thread)
//   search-cold    1 client  x Session::Partition on big prebuilt graphs (2 threads)
//   budget-hybrid  1 client  x Session::Partition: budget ladders + one hybrid plan
//
// All are closed loops: a client sends its next request only when the previous one
// returned. perfbench/LAYERS.md records why each workload exists and which end-to-end
// metric each per-layer metric should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tofu/util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;  // BENCHMARK.json's run_seconds
  bool trace = false;
  std::string spans_out;  // traced runs write their spans here (empty: not written)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // End-to-end metrics for untraced runs, per-layer metrics for traced runs.
  std::vector<Metric> metrics;
  // Two end-to-end figures kept out of `metrics`, which holds only measurements that
  // are never 0: failed / attempted is 0 when the program is correct, and the plans'
  // estimated cost (sum over distinct specs of estimated_comm_seconds +
  // memory_overhead_seconds) is computed, not measured.
  double plan_cost_s = 0.0;
  double FailedFrac() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  }
  // One JSON object: run environment, property shares with their bases, tails with
  // their percentile and sample count, and (traced) the per-layer self-time table.
  std::string details;
  std::vector<std::string> problems;  // every failed check, for stderr
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end: set-up, the timed phase (and for traced runs a second,
// traced phase on fresh state), then the correctness checks. Unknown workload names
// come back as a problem with correct == false.
RunResult RunBenchmark(const RunOptions& options);

// Served plan digests per distinct spec: spec key -> digest -> responses carrying it.
using ServedDigests = std::map<std::string, std::map<std::string, std::int64_t>>;

// Responses whose digest differs from the spec's reference digest (a spec missing from
// `reference` fails every response). Each mismatch is described in `problems`.
std::int64_t CountDigestFailures(const ServedDigests& served,
                                 const std::map<std::string, std::string>& reference,
                                 std::vector<std::string>* problems);

// True when a response status is the one its spec expects: OK, or kResourceExhausted
// for a budget below the spec's full-offload floor.
bool StatusAsExpected(bool expect_exhausted, const tofu::Status& status);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
