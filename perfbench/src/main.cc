// perfbench: the planner benchmark's measuring program (perfbench/run.py builds and
// runs it).
//
//   perfbench --workload serve-zipf --seed 1 --seconds 25 --trace 0 [--spans-out f.tsv]
//
// Stdout ends with one JSON object: {"correct", "attempted", "failed", "metrics"}, the
// metrics being the end-to-end set (--trace 0) or the per-layer set (--trace 1). The
// line before it holds the run's details (environment, property shares, tails, and the
// per-layer self-time table); stderr gets a human-readable summary and every failed
// check. Exits 1 when any check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tofu/util/json.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n  workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) known |= name == options.workload;
  if (!known) return Usage();

  const perfbench::RunResult result = perfbench::RunBenchmark(options);

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %lld requests, %lld failed\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0, static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed));
  std::fprintf(stderr, "  %-36s %16.6g  %s\n", "failed_frac", result.FailedFrac(), "fraction");
  std::fprintf(stderr, "  %-36s %16.6g  %s\n", "plan_cost_s", result.plan_cost_s, "model_s");
  for (const perfbench::Metric& metric : result.metrics) {
    std::fprintf(stderr, "  %-36s %16.6g  %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }

  tofu::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(result.correct);
  w.Key("attempted").Int(result.attempted);
  w.Key("failed").Int(result.failed);
  w.Key("metrics").BeginObject();
  for (const perfbench::Metric& metric : result.metrics) {
    w.Key(metric.name).BeginObject();
    w.Key("value").Number(metric.value);
    w.Key("unit").String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n%s\n", result.details.c_str(), w.str().c_str());
  return result.correct ? 0 : 1;
}
