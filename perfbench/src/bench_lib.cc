#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.h"

namespace perfbench {

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double WeightedGeometricMean(const std::vector<double>& values,
                             const std::vector<double>& weights) {
  double log_sum = 0.0, weight_sum = 0.0;
  for (std::size_t i = 0; i < values.size() && i < weights.size(); ++i) {
    if (!(values[i] > 0.0) || !(weights[i] > 0.0)) continue;
    log_sum += weights[i] * std::log(values[i]);
    weight_sum += weights[i];
  }
  return weight_sum > 0.0 ? std::exp(log_sum / weight_sum) : 0.0;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  tail.beyond = 10;
  return tail;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ ((b << 29) | (b >> 35)) ^ (b * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitInterval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

namespace {

std::string Mlp(int workers, const std::string& sizes, const std::string& extra = "") {
  return "{\"model\":\"mlp\",\"workers\":" + std::to_string(workers) + extra +
         ",\"config\":{\"batch\":64,\"layer_sizes\":" + sizes + "}}";
}

std::string Rnn(int workers, int layers, int hidden, const std::string& extra = "") {
  return "{\"model\":\"rnn\",\"workers\":" + std::to_string(workers) + extra +
         ",\"config\":{\"layers\":" + std::to_string(layers) +
         ",\"hidden\":" + std::to_string(hidden) +
         ",\"batch\":16,\"timesteps\":4,\"embed\":64}}";
}

std::string Transformer(int workers, int layers, const std::string& extra = "") {
  return "{\"model\":\"transformer\",\"workers\":" + std::to_string(workers) + extra +
         ",\"config\":{\"batch\":4,\"seq_len\":16,\"d_model\":64,\"d_ff\":128,"
         "\"heads\":2,\"layers\":" +
         std::to_string(layers) + ",\"num_classes\":64}}";
}

std::string WResNet(int workers) {
  return "{\"model\":\"wresnet\",\"workers\":" + std::to_string(workers) +
         ",\"config\":{\"layers\":50,\"width\":1,\"batch\":8,\"image\":32,"
         "\"classes\":10}}";
}

// Small and mid-size specs, most popular first. Every one plans in milliseconds; the
// budgeted ones sit between their full-offload floor and their unconstrained peak, so
// they exercise the budgeted search and the swap/recompute repair without failing.
std::vector<std::string> MakeCatalogue() {
  const std::string algo = ",\"algorithm\":";
  std::vector<std::string> specs = {
      Mlp(8, "[784,256,10]"),
      Mlp(4, "[784,256,10]"),
      Mlp(8, "[784,512,256,10]"),
      Rnn(8, 1, 128),
      Transformer(8, 1),
      Mlp(16, "[784,256,10]"),
      Mlp(4, "[784,512,256,10]"),
      Mlp(8, "[256,128,64,10]"),
      Rnn(4, 1, 128),
      Mlp(8, "[784,256,10]", algo + "\"EqualChop\""),
      Transformer(4, 1),
      Mlp(8, "[1024,1024,1024,10]"),
      Mlp(8, "[784,256,10]", algo + "\"Hybrid\""),
      Rnn(8, 2, 128),
      Mlp(16, "[784,512,256,10]"),
      Mlp(4, "[256,128,64,10]"),
      Mlp(8, "[784,2048,10]"),
      Mlp(8, "[784,256,10]", algo + "\"DataParallel\""),
      Mlp(8, "[784,2048,10]", ",\"memory_budget_bytes\":4000000"),
      Transformer(8, 2),
      Rnn(16, 1, 128),
      Mlp(8, "[784,256,10]", algo + "\"ICML18\""),
      Mlp(4, "[1024,1024,1024,10]"),
      Mlp(8, "[512,512,512,512,10]"),
      Rnn(8, 2, 256),
      Mlp(8, "[784,512,256,10]", ",\"level_bandwidths\":[1e10,2.1e10]"),
      WResNet(8),
      Mlp(16, "[256,128,64,10]"),
      Transformer(16, 1),
      Mlp(8, "[784,256,10]", algo + "\"Spartan\""),
      Rnn(4, 2, 128),
      Mlp(8, "[1024,1024,1024,10]", ",\"memory_budget_bytes\":2000000"),
      Mlp(4, "[784,2048,10]"),
      Transformer(8, 2, algo + "\"Hybrid\""),
      Mlp(16, "[1024,1024,1024,10]"),
      Rnn(8, 1, 128, ",\"memory_budget_bytes\":600000"),
      Mlp(4, "[512,512,512,512,10]"),
      Mlp(8, "[784,256,10]", algo + "\"AllRow-Greedy\""),
      Transformer(4, 2),
      WResNet(4),
      Mlp(16, "[784,2048,10]"),
      Rnn(4, 2, 256),
      Mlp(4, "[784,512,256,10]", ",\"level_bandwidths\":[1e10,2.1e10]"),
      Mlp(16, "[512,512,512,512,10]"),
      Rnn(16, 2, 128),
      Transformer(16, 2),
      Mlp(8, "[512,512,512,512,10]", ",\"memory_budget_bytes\":3000000"),
      Mlp(4, "[784,256,10]", algo + "\"EqualChop\""),
  };
  return specs;
}

}  // namespace

const std::vector<std::string>& ServeStream::Catalogue() {
  static const std::vector<std::string>* catalogue =
      new std::vector<std::string>(MakeCatalogue());
  return *catalogue;
}

namespace {

constexpr int kNovelPerBlock =
    static_cast<int>(ServeStream::kBlock * ServeStream::kNovelShare);  // rounded down

// Zipf(1) shares of the catalogue's non-novel slots, rounded by largest remainder so
// the counts sum to exactly kBlock - kNovelPerBlock.
std::vector<int> MakeBlockCounts() {
  const std::size_t n = ServeStream::Catalogue().size();
  const int slots = static_cast<int>(ServeStream::kBlock) - kNovelPerBlock;
  double harmonic = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) harmonic += 1.0 / static_cast<double>(rank);
  std::vector<int> counts(n);
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double exact = slots / (static_cast<double>(r + 1) * harmonic);
    counts[r] = static_cast<int>(exact);
    assigned += counts[r];
    remainders.push_back({exact - counts[r], r});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int k = 0; k < slots - assigned; ++k) ++counts[remainders[static_cast<std::size_t>(k)].second];
  return counts;
}

// A seeded bijection of [0, 4^6): a four-round Feistel network on two 6-bit halves.
std::uint64_t ShuffleSlot(std::uint64_t key, std::uint64_t slot) {
  static_assert(ServeStream::kBlock == 4096, "ShuffleSlot permutes 12-bit slots");
  std::uint64_t left = slot >> 6, right = slot & 63;
  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::uint64_t next = left ^ (Mix(key, (round << 8) | right) & 63);
    left = right;
    right = next;
  }
  return (left << 6) | right;
}

}  // namespace

const std::vector<int>& ServeStream::BlockCounts() {
  static const std::vector<int>* counts = new std::vector<int>(MakeBlockCounts());
  return *counts;
}

ServeStream::ServeStream(std::uint64_t seed) : seed_(seed) {}

std::string ServeStream::Line(std::uint64_t id, const std::string& spec) {
  return "{\"id\":" + std::to_string(id) + "," + spec.substr(1);
}

ServeDraw ServeStream::At(std::uint64_t index) const {
  ServeDraw draw;
  // Slots [0, kNovelPerBlock) of a block are novel; the rest run through the catalogue
  // ranks, BlockCounts()[r] slots each. The shuffle places the slots in the block.
  int slot = static_cast<int>(ShuffleSlot(Mix(seed_, index / kBlock), index % kBlock));
  if (slot < kNovelPerBlock) {
    // A bijection of the index onto 2^20 (odd multiplier), split into two hidden
    // widths in [256, 1280): distinct indices give distinct graphs, hence misses.
    const std::uint64_t code = (index * 0x9e3779b1ull + seed_) & 0xfffffull;
    const int workers = slot % 2 != 0 ? 8 : 4;
    draw.line = Line(index, Mlp(workers, "[784," + std::to_string(256 + (code & 1023)) +
                                             "," + std::to_string(256 + (code >> 10)) +
                                             ",10]"));
    return draw;
  }
  slot -= kNovelPerBlock;
  const std::vector<int>& counts = BlockCounts();
  draw.spec = 0;
  while (slot >= counts[static_cast<std::size_t>(draw.spec)]) {
    slot -= counts[static_cast<std::size_t>(draw.spec)];
    ++draw.spec;
  }
  draw.line = Line(index, Catalogue()[static_cast<std::size_t>(draw.spec)]);
  return draw;
}

std::vector<int> PassOrder(int num_specs, int asks, std::uint64_t seed, std::uint64_t pass) {
  std::vector<int> order;
  for (int s = 0; s < num_specs; ++s) order.insert(order.end(), asks, s);
  // Fisher-Yates with per-position draws.
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = Mix(Mix(seed, pass), i) % i;
    std::swap(order[i - 1], order[j]);
  }
  // Relabel by first appearance, so the cold misses come in spec order.
  std::vector<int> label(static_cast<std::size_t>(num_specs), -1);
  int next = 0;
  for (int& s : order) {
    int& l = label[static_cast<std::size_t>(s)];
    if (l < 0) l = next++;
    s = l;
  }
  return order;
}

SpanLog::SpanLog() { spans_.reserve(std::size_t{1} << 16); }

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::int32_t SpanLog::Open(const char* name) {
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Rename(std::int32_t index, const char* name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
}

std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> self;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name].push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i]);
    }
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "log\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << l << '\t' << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
