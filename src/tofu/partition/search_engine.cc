#include "tofu/partition/search_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "tofu/util/logging.h"

namespace tofu {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Saturating product guard for the static frontier-width precomputation.
constexpr std::int64_t kWidthSat = std::numeric_limits<std::int64_t>::max() / 2;

inline std::int64_t SatMul(std::int64_t a, int b) {
  if (a > kWidthSat / b) {
    return kWidthSat;
  }
  return a * static_cast<std::int64_t>(b);
}

// A budgeted lattice cell is dead -- no completion of it can fit the budget -- when its
// bytes are +inf; its cost is +inf too, so it loses every projection to a live cell.
constexpr double kDead = std::numeric_limits<double>::infinity();
constexpr std::int64_t kNoRank = std::numeric_limits<std::int64_t>::max();

}  // namespace

struct SearchEngine::Impl {
  SearchSpace space;
  SearchEngineOptions options;

  Impl(SearchSpace s, SearchEngineOptions o) : space(std::move(s)), options(o) {
    for (int n : space.slot_num_options) {
      TOFU_CHECK_GE(n, 1);
      TOFU_CHECK_LE(n, 65536);  // projection winners are stored in at most 16 bits
    }
    ComputeSchedule();
  }

  std::vector<int> first, last;  // per slot: first/last group touching it (-1 if none)
  // The schedule's frontier width: the most simultaneous states right after any group's
  // entering slots branch, over the full option counts (saturated). Reported as
  // SearchStats::max_frontier_states; above options.max_states the search runs capped.
  std::int64_t max_static_width = 0;

  void ComputeSchedule() {
    const int num_slots = static_cast<int>(space.slot_num_options.size());
    const int num_groups = static_cast<int>(space.group_slots.size());
    first.assign(static_cast<size_t>(num_slots), -1);
    last.assign(static_cast<size_t>(num_slots), -1);
    for (int g = 0; g < num_groups; ++g) {
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        if (first[static_cast<size_t>(s)] < 0) {
          first[static_cast<size_t>(s)] = g;
        }
        last[static_cast<size_t>(s)] = g;
      }
    }
    std::int64_t states = 1;
    for (int g = 0; g < num_groups; ++g) {
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        if (first[static_cast<size_t>(s)] == g) {
          states = SatMul(states, space.slot_num_options[static_cast<size_t>(s)]);
        }
      }
      max_static_width = std::max(max_static_width, states);
      for (int s : space.group_slots[static_cast<size_t>(g)]) {
        if (last[static_cast<size_t>(s)] == g) {
          states /= space.slot_num_options[static_cast<size_t>(s)];
        }
      }
    }
  }

  // Over-cap spaces: each entering slot, in schedule order, keeps its lowest-index
  // max(1, max_states / width) options, where width is the capped frontier it enters.
  // The capped frontier therefore never exceeds max_states, and because every kept
  // option keeps its index (option 0 always survives), results index the full space.
  SearchSpace CappedSpace() const {
    SearchSpace capped = space;
    std::int64_t width = 1;
    for (size_t g = 0; g < space.group_slots.size(); ++g) {
      for (int s : space.group_slots[g]) {
        if (first[static_cast<size_t>(s)] == static_cast<int>(g)) {
          int& n = capped.slot_num_options[static_cast<size_t>(s)];
          n = static_cast<int>(std::min<std::int64_t>(
              n, std::max<std::int64_t>(1, options.max_states / width)));
          width *= n;
          if (!capped.slot_option_bytes.empty()) {
            capped.slot_option_bytes[static_cast<size_t>(s)].resize(static_cast<size_t>(n));
          }
        }
      }
      for (int s : space.group_slots[g]) {
        if (last[static_cast<size_t>(s)] == static_cast<int>(g)) {
          width /= capped.slot_num_options[static_cast<size_t>(s)];
        }
      }
    }
    return capped;
  }

  Result Run(const GroupFillFn& fill_fn) {
    if (max_static_width <= options.max_states) {
      return Sweep(space, fill_fn, options.reuse_tables.get());
    }
    TOFU_LOG(Warning) << "search frontier of " << max_static_width << " states exceeds "
                      << options.max_states
                      << "; searching a capped option subset (plan approximate)";
    // The capped space has smaller option counts than any cached tables cover, so its
    // tables are filled fresh (at the capped counts) and none are exported.
    Result result = Sweep(CappedSpace(), fill_fn, nullptr);
    result.tables = nullptr;
    result.stats.exact = false;
    return result;
  }

  Result Sweep(const SearchSpace& sp, const GroupFillFn& fill_fn,
               const GroupCostTables* reuse);
  std::shared_ptr<GroupCostTables> FillOrImportAllTables(
      const SearchSpace& sp, const GroupFillFn& fill_fn, const GroupCostTables* reuse,
      std::vector<std::vector<std::int64_t>>* strides, Result* result);
};

SearchEngine::SearchEngine(SearchSpace space, SearchEngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(space), options)) {}

SearchEngine::~SearchEngine() = default;

SearchEngine::Result SearchEngine::Run(const GroupFillFn& fill_fn) {
  return impl_->Run(fill_fn);
}

// Hoisted table fills: every group's dense cost table is computed (or imported from
// `reuse`) before the sweep begins, in the engine's canonical mixed-radix order (last
// touched slot fastest). Hoisting is what enables dominated-option pruning (the
// analysis needs every table touching a slot) and table reuse across searches. Returns
// null as soon as a fill stops the search; neither that group nor any later one is
// counted.
std::shared_ptr<GroupCostTables> SearchEngine::Impl::FillOrImportAllTables(
    const SearchSpace& sp, const GroupFillFn& fill_fn, const GroupCostTables* reuse,
    std::vector<std::vector<std::int64_t>>* strides, Result* result) {
  const auto t0 = Clock::now();
  const int num_groups = static_cast<int>(sp.group_slots.size());
  auto tables = std::make_shared<GroupCostTables>();
  tables->groups.resize(static_cast<size_t>(num_groups));
  strides->resize(static_cast<size_t>(num_groups));
  std::vector<int> num_options;
  for (int g = 0; g < num_groups; ++g) {
    const std::vector<int>& touched = sp.group_slots[static_cast<size_t>(g)];
    const int k = static_cast<int>(touched.size());
    std::vector<std::int64_t>& stride = (*strides)[static_cast<size_t>(g)];
    stride.assign(static_cast<size_t>(k), 1);
    num_options.resize(static_cast<size_t>(k));
    std::int64_t cells = 1;
    for (int i = k - 1; i >= 0; --i) {
      stride[static_cast<size_t>(i)] = cells;
      num_options[static_cast<size_t>(i)] =
          sp.slot_num_options[static_cast<size_t>(touched[static_cast<size_t>(i)])];
      cells *= num_options[static_cast<size_t>(i)];
    }
    if (reuse != nullptr && static_cast<size_t>(g) < reuse->groups.size() &&
        reuse->groups[static_cast<size_t>(g)] != nullptr &&
        static_cast<std::int64_t>(reuse->groups[static_cast<size_t>(g)]->size()) == cells) {
      tables->groups[static_cast<size_t>(g)] = reuse->groups[static_cast<size_t>(g)];
      result->stats.reused_table_entries += cells;
    } else {
      auto fresh = std::make_shared<std::vector<double>>(static_cast<size_t>(cells));
      if (!fill_fn(g, num_options, fresh->data(), cells)) {
        result->stats.fill_seconds += SecondsSince(t0);
        return nullptr;
      }
      tables->groups[static_cast<size_t>(g)] = std::move(fresh);
    }
    // Imported cells count exactly like computed ones: these counters are a property
    // of the SEARCH, not of cache temperature, and serialized plans must stay
    // byte-identical between warm and cold runs.
    result->stats.states_explored += cells;
    result->stats.cost_table_entries += cells;
  }
  result->stats.fill_seconds += SecondsSince(t0);
  return tables;
}

// The sweep: the frontier is one flat cost array (plus a parallel bytes array under a
// budget) whose axes are the live slots in branch order, newest axis fastest (stride 1).
// Branching broadcasts along a new axis, charging adds one group cost per cell, and
// projecting a leaving axis is a strict-less min-reduce that keeps the lowest
// coordinate on ties (under a budget: lower cost, then lower bytes, then lower rank).
// When several slots leave at one group the NEWEST axis is projected first.
// docs/search.md ("Equal-cost tie-breaking") spells out the resulting rule.
SearchEngine::Result SearchEngine::Impl::Sweep(const SearchSpace& sp,
                                               const GroupFillFn& fill_fn,
                                               const GroupCostTables* reuse) {
  const auto start = Clock::now();
  const int num_slots = static_cast<int>(sp.slot_num_options.size());
  const int num_groups = static_cast<int>(sp.group_slots.size());
  Result result;

  // Memory-constrained mode: per-cell resident bytes ride along with cost. Slots no
  // group ever touches stay at option 0, so they contribute a constant; every touched
  // slot contributes at least its cheapest option, giving the admissible lower bound
  // used for pruning ("could any completion of this cell still fit?").
  const bool track = options.memory_budget > 0.0 && !sp.slot_option_bytes.empty();
  const double budget = options.memory_budget;
  std::vector<double> slot_min_bytes;
  double base_bytes = 0.0;     // untouched slots, fixed at option 0
  double remaining_min = 0.0;  // cheapest option of every touched slot not yet entered
  if (track) {
    TOFU_CHECK_EQ(sp.slot_option_bytes.size(), sp.slot_num_options.size());
    slot_min_bytes.resize(static_cast<size_t>(num_slots), 0.0);
    for (int s = 0; s < num_slots; ++s) {
      const std::vector<double>& ob = sp.slot_option_bytes[static_cast<size_t>(s)];
      TOFU_CHECK_EQ(static_cast<int>(ob.size()), sp.slot_num_options[static_cast<size_t>(s)]);
      if (first[static_cast<size_t>(s)] < 0) {
        base_bytes += ob[0];
        continue;
      }
      double m = ob[0];
      for (double b : ob) {
        m = std::min(m, b);
      }
      slot_min_bytes[static_cast<size_t>(s)] = m;
      remaining_min += m;
    }
    result.min_possible_bytes = base_bytes + remaining_min;
    if (result.min_possible_bytes > budget) {
      // Even the lightest assignment overflows: infeasible before exploring anything.
      result.feasible = false;
      result.slot_option.assign(static_cast<size_t>(num_slots), 0);
      return result;
    }
  }
  result.stats.max_frontier_states = max_static_width;

  std::vector<std::vector<std::int64_t>> group_stride;
  std::shared_ptr<GroupCostTables> tables =
      FillOrImportAllTables(sp, fill_fn, reuse, &group_stride, &result);
  if (tables == nullptr) {
    result.completed = false;
    result.stats.wall_seconds = SecondsSince(start);
    return result;
  }

  // Dominated-option pruning (unbudgeted searches). Option o of slot s is dominated
  // by o' < o when o' is pointwise <= in EVERY group table touching s and (with byte
  // tables) no heavier: then for every frontier state using o, the sibling state using
  // o' is no worse on both cost and bytes under every completion, so dropping o can
  // never change the returned plan -- and because the dominator has the SMALLER index,
  // every tie the canonical search would break toward o' still resolves identically.
  // (Restricting to o' < o is what makes ties safe; see docs/search.md.) Dominance over
  // a chain of pruned options is fine: pointwise <= is transitive, so the chain ends at
  // a kept dominator. Cross-slot or cross-state dominance is deliberately NOT attempted
  // -- two states that differ in several slots have different completion costs, so a
  // per-frontier comparison of accumulated cost alone would be unsound. The proof
  // assumes an exact DP; a budgeted merge keeps one state per residue, so budgeted
  // searches keep every option.
  std::vector<std::vector<int>> kept(static_cast<size_t>(num_slots));
  for (int s = 0; s < num_slots; ++s) {
    const int n = sp.slot_num_options[static_cast<size_t>(s)];
    kept[static_cast<size_t>(s)].resize(static_cast<size_t>(n));
    for (int o = 0; o < n; ++o) {
      kept[static_cast<size_t>(s)][static_cast<size_t>(o)] = o;
    }
  }
  if (options.prune_dominated && !track) {
    // Slot -> (group, position in the group's touched list) adjacency.
    std::vector<std::vector<std::pair<int, int>>> slot_groups(
        static_cast<size_t>(num_slots));
    for (int g = 0; g < num_groups; ++g) {
      const std::vector<int>& touched = sp.group_slots[static_cast<size_t>(g)];
      for (size_t i = 0; i < touched.size(); ++i) {
        slot_groups[static_cast<size_t>(touched[i])].push_back({g, static_cast<int>(i)});
      }
    }
    for (int s = 0; s < num_slots; ++s) {
      const int n = sp.slot_num_options[static_cast<size_t>(s)];
      if (first[static_cast<size_t>(s)] < 0 || n < 2) {
        continue;
      }
      const std::vector<double>* ob =
          sp.slot_option_bytes.empty() ? nullptr
                                       : &sp.slot_option_bytes[static_cast<size_t>(s)];
      std::vector<char> pruned(static_cast<size_t>(n), 0);
      for (int o = 1; o < n; ++o) {
        for (int o2 = 0; o2 < o && !pruned[static_cast<size_t>(o)]; ++o2) {
          if (ob != nullptr && (*ob)[static_cast<size_t>(o2)] > (*ob)[static_cast<size_t>(o)]) {
            continue;  // the cheaper-cost option is heavier: not a dominator
          }
          bool dominates = true;
          for (const auto& [g, pos] : slot_groups[static_cast<size_t>(s)]) {
            const std::vector<double>& table = *tables->groups[static_cast<size_t>(g)];
            const std::int64_t st = group_stride[static_cast<size_t>(g)][static_cast<size_t>(pos)];
            const std::int64_t block = st * static_cast<std::int64_t>(n);
            const std::int64_t size = static_cast<std::int64_t>(table.size());
            for (std::int64_t base = 0; base < size && dominates; base += block) {
              const double* lo = table.data() + base + static_cast<std::int64_t>(o2) * st;
              const double* hi = table.data() + base + static_cast<std::int64_t>(o) * st;
              for (std::int64_t x = 0; x < st; ++x) {
                if (lo[x] > hi[x]) {
                  dominates = false;
                  break;
                }
              }
            }
            if (!dominates) {
              break;
            }
          }
          if (dominates) {
            pruned[static_cast<size_t>(o)] = 1;
          }
        }
      }
      std::vector<int>& keep = kept[static_cast<size_t>(s)];
      keep.clear();
      for (int o = 0; o < n; ++o) {
        if (!pruned[static_cast<size_t>(o)]) {
          keep.push_back(o);
        }
      }
    }
  }

  // Compacted charge tables. The sweep only ever gathers cells whose every coordinate
  // is a KEPT option, so copy exactly those cells out of the full fills into dense
  // kept-only tables: the charge gather below then runs on pure strides (coordinate *
  // compact stride) over a table smaller by the pruned options' product. Values are
  // copied doubles, so costs, tie-breaks and plans stay bit-identical to charging from
  // the full tables (and the fills above already counted states_explored /
  // cost_table_entries, which do not change). Groups none of whose touched slots lost
  // an option alias the full table outright.
  std::vector<std::shared_ptr<const std::vector<double>>> charge_table(
      static_cast<size_t>(num_groups));
  std::vector<std::vector<std::int64_t>> charge_stride(static_cast<size_t>(num_groups));
  {
    const auto t0 = Clock::now();
    for (int g = 0; g < num_groups; ++g) {
      const std::vector<int>& touched = sp.group_slots[static_cast<size_t>(g)];
      const int k = static_cast<int>(touched.size());
      std::vector<std::int64_t>& stride = charge_stride[static_cast<size_t>(g)];
      stride.assign(static_cast<size_t>(k), 1);
      std::int64_t compact_cells = 1;
      bool any_pruned = false;
      for (int i = k - 1; i >= 0; --i) {
        const int s = touched[static_cast<size_t>(i)];
        const int m = static_cast<int>(kept[static_cast<size_t>(s)].size());
        stride[static_cast<size_t>(i)] = compact_cells;
        compact_cells *= m;
        any_pruned = any_pruned || m != sp.slot_num_options[static_cast<size_t>(s)];
      }
      const std::vector<double>& full = *tables->groups[static_cast<size_t>(g)];
      if (!any_pruned) {
        charge_table[static_cast<size_t>(g)] = tables->groups[static_cast<size_t>(g)];
        charge_stride[static_cast<size_t>(g)] = group_stride[static_cast<size_t>(g)];
        continue;
      }
      result.stats.pruned_table_cells +=
          static_cast<std::int64_t>(full.size()) - compact_cells;
      auto compact = std::make_shared<std::vector<double>>(
          static_cast<size_t>(compact_cells));
      const std::vector<std::int64_t>& full_stride =
          group_stride[static_cast<size_t>(g)];
      std::vector<int> coord(static_cast<size_t>(k), 0);
      for (std::int64_t idx = 0; idx < compact_cells; ++idx) {
        std::int64_t full_idx = 0;
        for (int i = 0; i < k; ++i) {
          const int s = touched[static_cast<size_t>(i)];
          full_idx += static_cast<std::int64_t>(
                          kept[static_cast<size_t>(s)]
                              [static_cast<size_t>(coord[static_cast<size_t>(i)])]) *
                      full_stride[static_cast<size_t>(i)];
        }
        (*compact)[static_cast<size_t>(idx)] = full[static_cast<size_t>(full_idx)];
        for (int i = k - 1; i >= 0; --i) {  // odometer over kept coordinates
          const int s = touched[static_cast<size_t>(i)];
          if (++coord[static_cast<size_t>(i)] <
              static_cast<int>(kept[static_cast<size_t>(s)].size())) {
            break;
          }
          coord[static_cast<size_t>(i)] = 0;
        }
      }
      charge_table[static_cast<size_t>(g)] = std::move(compact);
    }
    result.stats.fill_seconds += SecondsSince(t0);
  }

  // Slots whose kept set collapsed to one option become FIXED: they contribute nothing
  // to the compact table index (their compact dimension has size one) instead of an
  // axis, which is where the pruning speedup comes from (the lattice shrinks by the
  // pruned options' product).
  struct Axis {
    int slot;
    int size;  // kept option count
  };
  struct ProjEvent {
    int slot;
    std::vector<Axis> residue;           // axes AFTER this projection, in order
    // Argmin kept-coordinate per residue cell: one byte while the axis has at most 256
    // coordinates (the common case, and most of the sweep's retained memory), two above.
    std::vector<std::uint8_t> winners;
    std::vector<std::uint16_t> wide_winners;
  };
  std::vector<Axis> axes;
  std::vector<int> axis_of_slot(static_cast<size_t>(num_slots), -1);
  std::vector<ProjEvent> events;
  std::vector<double> cost{0.0};
  std::vector<double> scratch, scratch_bytes;
  // Budget-only per-cell state: resident bytes, and the cell's rank in the order that
  // breaks full (cost, bytes) ties. Children rank by (parent rank, coordinate); a
  // residue takes the rank of its earliest-ranked live member. Without dead cells that
  // is lattice index order -- the lowest-coordinate rule of the unbudgeted sweep -- but
  // a dead cell can make a residue's earliest live member sit at a higher coordinate,
  // so budgeted sweeps carry ranks explicitly (renumbered densely after every group's
  // projections, which keeps every rank below the cell count).
  std::vector<double> bytes;
  std::vector<std::int64_t> rank, scratch_rank, win_rank, scratch_win_rank, cell_of_rank;
  if (track) {
    bytes.assign(1, base_bytes);
    rank.assign(1, 0);
  }

  for (int g = 0; g < num_groups; ++g) {
    const std::vector<int>& touched = sp.group_slots[static_cast<size_t>(g)];

    // 1. Branch entering slots: broadcast along a new fastest axis. Under a budget a
    // child is dead when its bytes plus the cheapest choice for every still-undecided
    // slot exceed the budget (so is every child of a dead parent: +inf bytes) -- the
    // pruning is admissible, and each live parent's cheapest child always survives.
    // Single-option slots get no axis, but under a budget still add their bytes.
    {
      const auto t0 = Clock::now();
      for (int s : touched) {
        if (first[static_cast<size_t>(s)] != g) {
          continue;
        }
        const std::vector<int>& keep = kept[static_cast<size_t>(s)];
        const int m = static_cast<int>(keep.size());
        result.stats.dominated_pruned_states +=
            static_cast<std::int64_t>(cost.size()) *
            static_cast<std::int64_t>(sp.slot_num_options[static_cast<size_t>(s)] - m);
        if (m == 1 && !track) {
          continue;  // fixed slot; chosen option recorded at the end
        }
        const std::int64_t n_in = static_cast<std::int64_t>(cost.size());
        scratch.resize(static_cast<size_t>(n_in) * static_cast<size_t>(m));
        if (!track) {
          for (std::int64_t i = 0; i < n_in; ++i) {
            const double v = cost[static_cast<size_t>(i)];
            double* out = scratch.data() + static_cast<size_t>(i) * static_cast<size_t>(m);
            for (int c = 0; c < m; ++c) {
              out[c] = v;
            }
          }
        } else {
          const std::vector<double>& ob = sp.slot_option_bytes[static_cast<size_t>(s)];
          const double rest_min = remaining_min - slot_min_bytes[static_cast<size_t>(s)];
          remaining_min = rest_min;
          scratch_bytes.resize(scratch.size());
          scratch_rank.resize(scratch.size());
          std::int64_t pruned = 0;
          for (std::int64_t i = 0; i < n_in; ++i) {
            const double v = cost[static_cast<size_t>(i)];
            const double b = bytes[static_cast<size_t>(i)];
            const size_t base = static_cast<size_t>(i) * static_cast<size_t>(m);
            for (int c = 0; c < m; ++c) {
              scratch_rank[base + static_cast<size_t>(c)] = rank[static_cast<size_t>(i)] * m + c;
              const double child_bytes = b + ob[static_cast<size_t>(keep[static_cast<size_t>(c)])];
              if (child_bytes + rest_min > budget) {
                scratch[base + static_cast<size_t>(c)] = kDead;
                scratch_bytes[base + static_cast<size_t>(c)] = kDead;
                pruned += b != kDead ? 1 : 0;
              } else {
                scratch[base + static_cast<size_t>(c)] = v;
                scratch_bytes[base + static_cast<size_t>(c)] = child_bytes;
              }
            }
          }
          result.stats.memory_pruned_states += pruned;
          std::swap(bytes, scratch_bytes);
          std::swap(rank, scratch_rank);
        }
        std::swap(cost, scratch);
        if (m > 1) {
          axis_of_slot[static_cast<size_t>(s)] = static_cast<int>(axes.size());
          axes.push_back({s, m});
        }
      }
      result.stats.expand_seconds += SecondsSince(t0);
    }

    // 2. Charge the group's cost to every cell: one table value per combination of the
    // touched axes' coordinates, added to the contiguous run the untouched faster axes
    // span. The gather reads the COMPACT kept-only table: a kept coordinate maps
    // straight to a table index via the compact stride (fixed slots have compact
    // dimension one and contribute nothing), so dominated options are never gathered.
    {
      const auto t0 = Clock::now();
      const std::vector<double>& table = *charge_table[static_cast<size_t>(g)];
      const std::vector<std::int64_t>& stride = charge_stride[static_cast<size_t>(g)];
      std::vector<std::pair<int, std::int64_t>> ax;  // (axis pos, compact stride)
      for (size_t i = 0; i < touched.size(); ++i) {
        const int s = touched[i];
        if (axis_of_slot[static_cast<size_t>(s)] >= 0) {
          ax.push_back({axis_of_slot[static_cast<size_t>(s)], stride[i]});
        }
      }
      if (ax.empty()) {
        // Every touched slot is fixed; with kept[0] == 0 for all of them (option 0 is
        // never dominated), the single gathered cell is the compact table's first.
        const double v = table[0];
        for (double& c : cost) {
          c += v;
        }
      } else {
        std::sort(ax.begin(), ax.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        const int pmax = ax.back().first;
        std::int64_t prefix = 1;
        for (int j = 0; j <= pmax; ++j) {
          prefix *= axes[static_cast<size_t>(j)].size;
        }
        const std::int64_t run = static_cast<std::int64_t>(cost.size()) / prefix;
        std::vector<int> coord(static_cast<size_t>(pmax) + 1, 0);
        for (std::int64_t m = 0; m < prefix; ++m) {
          std::int64_t tidx = 0;
          for (const auto& a : ax) {
            tidx += static_cast<std::int64_t>(coord[static_cast<size_t>(a.first)]) * a.second;
          }
          const double v = table[static_cast<size_t>(tidx)];
          double* c = cost.data() + static_cast<size_t>(m) * static_cast<size_t>(run);
          for (std::int64_t x = 0; x < run; ++x) {
            c[x] += v;  // contiguous: the auto-vectorized inner loop
          }
          for (int j = pmax; j >= 0; --j) {
            if (++coord[static_cast<size_t>(j)] < axes[static_cast<size_t>(j)].size) {
              break;
            }
            coord[static_cast<size_t>(j)] = 0;
          }
        }
      }
      result.stats.charge_seconds += SecondsSince(t0);
    }

    // 3. Project leaving slots: min-reduce along each leaving axis, newest first.
    {
      const auto t0 = Clock::now();
      std::vector<int> leaving;
      for (int s : touched) {
        if (last[static_cast<size_t>(s)] == g && axis_of_slot[static_cast<size_t>(s)] >= 0) {
          leaving.push_back(axis_of_slot[static_cast<size_t>(s)]);
        }
      }
      std::sort(leaving.begin(), leaving.end(), std::greater<int>());
      const std::int64_t cells_before = static_cast<std::int64_t>(cost.size());
      if (track && !leaving.empty()) {
        win_rank = rank;  // each cell starts as its own winner
      }
      for (int pos : leaving) {
        const Axis axis = axes[static_cast<size_t>(pos)];
        std::int64_t st = 1;
        for (size_t j = static_cast<size_t>(pos) + 1; j < axes.size(); ++j) {
          st *= axes[j].size;
        }
        const std::int64_t n = axis.size;
        const std::int64_t out_size = static_cast<std::int64_t>(cost.size()) / n;
        scratch.resize(static_cast<size_t>(out_size));
        if (track) {
          scratch_bytes.resize(static_cast<size_t>(out_size));
          scratch_rank.resize(static_cast<size_t>(out_size));
          scratch_win_rank.resize(static_cast<size_t>(out_size));
        }
        ProjEvent event;
        event.slot = axis.slot;
        auto reduce = [&](auto* winners) {
          using Winner = std::remove_pointer_t<decltype(winners)>;
          for (std::int64_t outer = 0; outer < out_size / st; ++outer) {
            const size_t in_base = static_cast<size_t>(outer * n * st);
            const size_t out_base = static_cast<size_t>(outer * st);
            const double* in = cost.data() + in_base;
            double* out = scratch.data() + out_base;
            Winner* win = winners + out_base;
            for (std::int64_t x = 0; x < st; ++x) {
              out[x] = in[x];
              win[x] = 0;
            }
            if (!track) {
              for (std::int64_t c = 1; c < n; ++c) {
                const double* inc = in + static_cast<size_t>(c * st);
                for (std::int64_t x = 0; x < st; ++x) {
                  // Strict less: ties keep the lowest coordinate.
                  if (inc[x] < out[x]) {
                    out[x] = inc[x];
                    win[x] = static_cast<Winner>(c);
                  }
                }
              }
              continue;
            }
            const double* in_b = bytes.data() + in_base;
            const std::int64_t* in_r = rank.data() + in_base;
            const std::int64_t* in_w = win_rank.data() + in_base;
            double* out_b = scratch_bytes.data() + out_base;
            std::int64_t* out_r = scratch_rank.data() + out_base;
            std::int64_t* out_w = scratch_win_rank.data() + out_base;
            for (std::int64_t x = 0; x < st; ++x) {
              out_b[x] = in_b[x];
              out_r[x] = in_b[x] != kDead ? in_r[x] : kNoRank;
              out_w[x] = in_w[x];
            }
            for (std::int64_t c = 1; c < n; ++c) {
              const size_t off = static_cast<size_t>(c * st);
              for (std::int64_t x = 0; x < st; ++x) {
                const double cc = in[off + x];
                const double cb = in_b[off + x];
                if (cb == kDead) {
                  continue;
                }
                out_r[x] = std::min(out_r[x], in_r[off + x]);
                // Equal cost prefers the lighter cell: any completion feasible for the
                // heavier one is feasible for it. Full ties go to the lower rank.
                if (cc < out[x] ||
                    (cc == out[x] &&
                     (cb < out_b[x] || (cb == out_b[x] && in_w[off + x] < out_w[x])))) {
                  out[x] = cc;
                  out_b[x] = cb;
                  out_w[x] = in_w[off + x];
                  win[x] = static_cast<Winner>(c);
                }
              }
            }
          }
        };
        if (n <= 256) {
          event.winners.resize(static_cast<size_t>(out_size));
          reduce(event.winners.data());
        } else {
          event.wide_winners.resize(static_cast<size_t>(out_size));
          reduce(event.wide_winners.data());
        }
        std::swap(cost, scratch);
        if (track) {
          std::swap(bytes, scratch_bytes);
          std::swap(rank, scratch_rank);
          std::swap(win_rank, scratch_win_rank);
        }
        axes.erase(axes.begin() + pos);
        axis_of_slot[static_cast<size_t>(axis.slot)] = -1;
        for (size_t j = static_cast<size_t>(pos); j < axes.size(); ++j) {
          axis_of_slot[static_cast<size_t>(axes[j].slot)] = static_cast<int>(j);
        }
        event.residue = axes;
        events.push_back(std::move(event));
      }
      if (track && !leaving.empty()) {
        // Dense renumbering: live ranks are distinct and below cells_before.
        cell_of_rank.assign(static_cast<size_t>(cells_before), -1);
        for (size_t i = 0; i < rank.size(); ++i) {
          if (rank[i] != kNoRank) {
            cell_of_rank[static_cast<size_t>(rank[i])] = static_cast<std::int64_t>(i);
          }
          rank[i] = 0;  // dead cells: any in-range value; their children die too
        }
        std::int64_t next = 0;
        for (std::int64_t i : cell_of_rank) {
          if (i >= 0) {
            rank[static_cast<size_t>(i)] = next++;
          }
        }
      }
      result.stats.project_seconds += SecondsSince(t0);
    }
  }

  // Every branched axis was projected at its slot's last group: one cell remains.
  TOFU_CHECK(axes.empty());
  TOFU_CHECK_EQ(cost.size(), static_cast<size_t>(1));
  result.slot_option.assign(static_cast<size_t>(num_slots), 0);
  if (track && bytes[0] == kDead) {
    // Rounding in the byte sums killed the last live cell: nothing provably fits.
    result.feasible = false;
    result.stats.wall_seconds = SecondsSince(start);
    return result;
  }
  result.best_cost = cost[0];
  if (track) {
    result.best_bytes = bytes[0];
  }

  // Reconstruction: walk the projection events newest-first. An event's residue axes
  // are all projected in LATER events, so their chosen coordinates are already known
  // and pin the residue cell whose recorded winner is this slot's choice.
  std::vector<int> coord_of(static_cast<size_t>(num_slots), 0);
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    std::int64_t residue_index = 0;
    std::int64_t stride = 1;
    for (int j = static_cast<int>(it->residue.size()) - 1; j >= 0; --j) {
      const Axis& axis = it->residue[static_cast<size_t>(j)];
      residue_index += static_cast<std::int64_t>(coord_of[static_cast<size_t>(axis.slot)]) * stride;
      stride *= axis.size;
    }
    coord_of[static_cast<size_t>(it->slot)] =
        it->winners.empty() ? it->wide_winners[static_cast<size_t>(residue_index)]
                            : it->winners[static_cast<size_t>(residue_index)];
  }
  for (int s = 0; s < num_slots; ++s) {
    if (first[static_cast<size_t>(s)] < 0) {
      continue;  // untouched: option 0
    }
    result.slot_option[static_cast<size_t>(s)] =
        kept[static_cast<size_t>(s)][static_cast<size_t>(coord_of[static_cast<size_t>(s)])];
  }
  result.tables = std::move(tables);
  result.stats.wall_seconds = SecondsSince(start);
  return result;
}

}  // namespace tofu
