// Shared pieces of the planner benchmark: the percentile rules, the seeded request
// streams every workload draws from, and the in-memory span recorder of traced runs.
//
// Nothing here depends on how a workload is timed; workloads.cc owns that. The
// self-tests (selftest.cc) pin the rules below.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end);

// ------------------------------------------------------------------- statistics

// Median of `values` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

// exp(sum w_i log v_i / sum w_i) over positive values; 0 when no weight is positive.
double WeightedGeometricMean(const std::vector<double>& values,
                             const std::vector<double>& weights);

// The tail every timing is reported with: the highest percentile that still has at
// least ten samples beyond it. For n sorted samples that is the value at index n - 11,
// i.e. percentile 100 * (n - 10) / n. With fewer than 11 samples no percentile
// qualifies; the maximum is reported and `beyond` says how many samples exceed it (0).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail TailOf(std::vector<double> values);

// ------------------------------------------------------------------ seeded draws

// Stateless 64-bit mix (splitmix64 finalizer over a ^ rotated b): per-index draws that
// do not depend on how many draws came before, so a stream is a pure function of
// (seed, index) regardless of how client threads interleave.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);
// Uniform double in [0, 1) from a mixed value.
double UnitInterval(std::uint64_t bits);

// One request of the serve-zipf stream: a serve-protocol line and the catalogue spec it
// came from (-1 for a novel spec, which no other index of the stream produces).
struct ServeDraw {
  int spec = -1;
  std::string line;
};

// The serve-zipf request stream, stratified in blocks of kBlock requests. Every block
// holds the same multiset: kNovelShare of it novel mid-size MLPs that must miss the
// plan cache (half at 4 workers, half at 8), the rest catalogue specs in Zipf(1)
// proportion by catalogue rank. The seed shuffles each block and fixes the novel specs'
// layer widths. A fixed multiset per block keeps each percentile at the same rank of
// the same spec mix in every block and for every seed, so figures computed per block
// move with the program's speed, not with how many slow specs a block happened to draw.
class ServeStream {
 public:
  static constexpr std::uint64_t kBlock = 4096;  // the shuffle permutes 12-bit slots
  static constexpr double kNovelShare = 0.05;
  // Ids of the requests that plan the catalogue before timing; stream ids stay below.
  static constexpr std::uint64_t kWarmupIds = std::uint64_t{1} << 40;
  explicit ServeStream(std::uint64_t seed);

  // A catalogue-style spec line with `"id":id` prepended.
  static std::string Line(std::uint64_t id, const std::string& spec);

  // Request `index` (ids in the line equal the index). Injective on novel specs for
  // index < 2^20.
  ServeDraw At(std::uint64_t index) const;
  // The fixed catalogue (serve-protocol lines without an "id"), most popular first.
  static const std::vector<std::string>& Catalogue();
  // Requests per block of each catalogue spec, by rank; the rest of a block is novel.
  static const std::vector<int>& BlockCounts();

 private:
  std::uint64_t seed_;
};

// The order of one pass of a session workload: every spec index in [0, num_specs)
// appears exactly `asks` times. A spec's first appearance is its cold miss on the
// pass's fresh session; the later ones are hits. First appearances come in spec order
// (a ladder is walked from loose to tight budget, as a launcher would), because where a
// miss falls among the others moves its time by up to half; (seed, pass) places the
// hits between them.
std::vector<int> PassOrder(int num_specs, int asks, std::uint64_t seed, std::uint64_t pass);

// --------------------------------------------------------------------- tracing

// One timed interval: a call into a layer made from the benchmark's own code. `parent`
// indexes the enclosing span of the same log (-1 at top level); spans of one request
// share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
};

// Spans of one client thread, kept in memory and written out when the run ends. Fixed
// capacity: spans past it are counted in dropped() instead of recorded.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 21;
  SpanLog();

  void set_request(std::int64_t request) { request_ = request; }
  std::int32_t Open(const char* name);
  void Close(std::int32_t index);
  void Rename(std::int32_t index, const char* name);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
  std::int64_t request_ = -1;
  std::int64_t dropped_ = 0;
};

// RAII span; a null log makes it a no-op, which is how untraced runs stay untimed.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const char* name) {
    if (log_ != nullptr) log_->Rename(index_, name);
  }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

// Self time of every recorded span (its duration minus the durations of its direct
// children), in nanoseconds, grouped by span name.
std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<const SpanLog*>& logs);

// Writes every span as one tab-separated line (log, index, parent, request, name,
// start_ns, end_ns) under a header line. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
