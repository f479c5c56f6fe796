// Self-tests of the benchmark's own code: the tail rule, the seeded streams, the
// output checks, and that plan_cost_s does not depend on the seed.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestTailRule() {
  std::vector<double> values;
  for (int v = 100; v >= 1; --v) values.push_back(v);
  perfbench::Tail tail = perfbench::TailOf(values);
  Expect(tail.value == 90.0 && tail.beyond == 10 && tail.samples == 100 &&
             tail.percentile == 90.0,
         "tail of 1..100 is p90 = 90 with 10 samples beyond");
  const auto beyond = std::count_if(values.begin(), values.end(),
                                    [&](double v) { return v > tail.value; });
  Expect(beyond == 10, "exactly ten samples lie beyond the tail of distinct values");

  values.resize(11);  // 100..90
  tail = perfbench::TailOf(values);
  Expect(tail.value == 90.0 && tail.beyond == 10,
         "with 11 samples the tail is the minimum, 10 beyond it");
  values.resize(10);
  tail = perfbench::TailOf(values);
  Expect(tail.value == 100.0 && tail.beyond == 0 && tail.percentile == 100.0,
         "with 10 samples no percentile has 10 beyond: the maximum is reported");
  Expect(perfbench::TailOf({}).samples == 0, "empty input has no samples");

  Expect(perfbench::Median({3, 1, 2}) == 2.0, "median of an odd count");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "median of an even count");
  const double geo = perfbench::WeightedGeometricMean({1.0, 100.0}, {3.0, 1.0});
  Expect(std::abs(geo - std::pow(10.0, 0.5)) < 1e-12,
         "geometric mean of 1 (weight 3) and 100 (weight 1) is 10^(1/2)");
  Expect(perfbench::WeightedGeometricMean({}, {}) == 0.0, "empty geometric mean is 0");
}

struct StreamSummary {
  std::vector<std::string> lines;
  // Per block: requests of each catalogue spec (index = rank), then novel requests at
  // 4 and at 8 workers.
  std::vector<std::vector<int>> block_counts;
  std::set<std::string> novel;
  int novel_count = 0;
};

StreamSummary Summarize(std::uint64_t seed, int blocks) {
  using perfbench::ServeStream;
  const ServeStream stream(seed);
  const std::size_t catalogue = ServeStream::Catalogue().size();
  StreamSummary summary;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(blocks) * ServeStream::kBlock; ++i) {
    if (i % ServeStream::kBlock == 0) summary.block_counts.emplace_back(catalogue + 2, 0);
    std::vector<int>& counts = summary.block_counts.back();
    const perfbench::ServeDraw draw = stream.At(i);
    summary.lines.push_back(draw.line);
    if (draw.spec < 0) {
      ++summary.novel_count;
      summary.novel.insert(draw.line.substr(draw.line.find(',')));
      ++counts[catalogue + (draw.line.find("\"workers\":8") != std::string::npos ? 1 : 0)];
    } else {
      ++counts[static_cast<std::size_t>(draw.spec)];
    }
  }
  return summary;
}

void TestStreams() {
  using perfbench::ServeStream;
  constexpr int kBlocks = 8;
  const StreamSummary a = Summarize(11, kBlocks);
  const StreamSummary a_again = Summarize(11, kBlocks);
  const StreamSummary b = Summarize(12, kBlocks);
  Expect(a.lines == a_again.lines, "the same seed gives the same serve stream");
  Expect(a.lines != b.lines, "different seeds give different serve streams");
  Expect(a.block_counts[0] != std::vector<int>(a.block_counts[0].size(), 0) &&
             a.block_counts[1] == a.block_counts[0],
         "consecutive blocks differ in order only");
  std::vector<int> want = ServeStream::BlockCounts();
  const int novel_per_block = static_cast<int>(ServeStream::kBlock * ServeStream::kNovelShare);
  want.push_back(novel_per_block / 2);
  want.push_back(novel_per_block - novel_per_block / 2);
  for (const StreamSummary* s : {&a, &b}) {
    bool same = true;
    for (const std::vector<int>& counts : s->block_counts) same = same && counts == want;
    Expect(same, "every block of every seed holds the same spec mix, each catalogue spec "
                 "at least once, and one request in 20 novel, half of them at 8 workers");
    Expect(static_cast<int>(s->novel.size()) == s->novel_count,
           "every novel spec is distinct, so each must miss");
  }
  Expect(*std::min_element(want.begin(), want.end()) > 0, "no catalogue spec is left out");
  const std::vector<int>& counts = ServeStream::BlockCounts();
  Expect(std::is_sorted(counts.rbegin(), counts.rend()),
         "more popular catalogue ranks get at least as many requests");

  for (int asks : {2, 4}) {
    const std::vector<int> pass = perfbench::PassOrder(13, asks, 5, 3);
    Expect(pass == perfbench::PassOrder(13, asks, 5, 3), "the same seed gives the same pass");
    const std::vector<int> other = perfbench::PassOrder(13, asks, 6, 3);
    Expect(pass != other, "different seeds reorder a pass");
    std::vector<int> sorted_pass = pass;
    std::vector<int> sorted_other = other;
    std::sort(sorted_pass.begin(), sorted_pass.end());
    std::sort(sorted_other.begin(), sorted_other.end());
    std::vector<int> each;
    for (int s = 0; s < 13; ++s) each.insert(each.end(), asks, s);
    Expect(sorted_pass == each && sorted_other == each,
           "a pass asks for every spec `asks` times, whatever the seed");
    std::vector<int> first;
    for (int s : other) {
      if (std::find(first.begin(), first.end(), s) == first.end()) first.push_back(s);
    }
    std::vector<int> in_order(13);
    for (int s = 0; s < 13; ++s) in_order[static_cast<std::size_t>(s)] = s;
    Expect(first == in_order, "a pass's cold misses come in spec order");
  }
}

void TestChecks() {
  perfbench::ServedDigests served;
  served["spec-a"]["digest-1"] = 5;
  const std::map<std::string, std::string> right = {{"spec-a", "digest-1"}};
  const std::map<std::string, std::string> wrong = {{"spec-a", "digest-2"}};
  std::vector<std::string> problems;
  Expect(perfbench::CountDigestFailures(served, right, &problems) == 0 && problems.empty(),
         "matching digests pass");
  Expect(perfbench::CountDigestFailures(served, wrong, &problems) == 5 && problems.size() == 1,
         "a wrong digest fails every response that carried it");
  Expect(perfbench::CountDigestFailures(served, {}, &problems) == 5,
         "a spec with no reference plan fails");

  const tofu::Status exhausted(tofu::StatusCode::kResourceExhausted, "budget");
  Expect(perfbench::StatusAsExpected(false, tofu::Status::Ok()), "OK where OK is expected");
  Expect(perfbench::StatusAsExpected(true, exhausted), "exhausted where expected");
  Expect(!perfbench::StatusAsExpected(true, tofu::Status::Ok()),
         "OK where exhaustion is expected fails");
  Expect(!perfbench::StatusAsExpected(false, exhausted), "unexpected exhaustion fails");
  Expect(!perfbench::StatusAsExpected(
             true, tofu::Status(tofu::StatusCode::kInvalidArgument, "bad")),
         "another error code where exhaustion is expected fails");
}

void TestPlanCostAcrossSeeds() {
  double cost[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    perfbench::RunOptions options;
    options.workload = "serve-zipf";
    options.seed = 100 + static_cast<std::uint64_t>(i);
    options.seconds = 0.3;
    const perfbench::RunResult result = perfbench::RunBenchmark(options);
    Expect(result.correct && result.failed == 0, "a short serve-zipf run passes its checks");
    cost[i] = result.plan_cost_s;
  }
  Expect(cost[0] > 0.0 && cost[0] == cost[1], "plan_cost_s is the same across seeds");
}

}  // namespace

int main() {
  TestTailRule();
  TestStreams();
  TestChecks();
  TestPlanCostAcrossSeeds();
  std::fprintf(stderr, "perfbench self-tests: %s (%d failures)\n",
               failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
