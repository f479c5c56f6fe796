#include "tofu/pipeline/pipeline_sim.h"

#include <algorithm>
#include <vector>

#include "tofu/sim/event_sim.h"
#include "tofu/util/logging.h"

namespace tofu {

double AnalyticPipelineSeconds(const PipelinePlan& plan) {
  const int S = static_cast<int>(plan.stages.size());
  const double M = static_cast<double>(std::max(plan.micro_batches, 1));
  double fill = 0.0;   // sum_{j<s} (f_j + t_fwd_j)
  double drain = 0.0;  // sum_{j<s} (b_j + t_bwd_j)
  double best = 0.0;
  for (int s = 0; s < S; ++s) {
    const PipelineStage& stage = plan.stages[static_cast<size_t>(s)];
    best = std::max(best,
                    fill + M * (stage.fwd_seconds + stage.bwd_seconds) + drain);
    fill += stage.fwd_seconds + stage.transfer_fwd_seconds;
    drain += stage.bwd_seconds + stage.transfer_bwd_seconds;
  }
  return best;
}

double Simulate1F1BSeconds(const PipelinePlan& plan) {
  const int S = static_cast<int>(plan.stages.size());
  const int M = std::max(plan.micro_batches, 1);
  TOFU_CHECK_GE(S, 1);

  // Lowered onto the event simulator: stage s is device s's compute stream, its 1F1B
  // sequence is a dependency chain, and each boundary hand-off is a zero-byte link node
  // whose post_delay_s is the transfer time (zero bytes never occupy the link, so
  // hand-offs overlap freely, as the stage-to-stage transfers do).
  SimGraph sim;
  sim.num_devices = S;
  sim.link_bandwidths = {1.0};
  // Node ids of each stage's forward / backward of every micro-batch; -1 until emitted.
  std::vector<std::vector<std::int32_t>> fwd_node(
      static_cast<size_t>(S), std::vector<std::int32_t>(static_cast<size_t>(M), -1));
  std::vector<std::vector<std::int32_t>> bwd_node = fwd_node;

  // Static per-stage 1F1B sequence: warmup forwards, then backward m / forward
  // m + warmup pairs. Encoded as (is_backward, micro) items.
  struct Item {
    bool backward = false;
    int micro = 0;
  };
  std::vector<std::vector<Item>> sequence(static_cast<size_t>(S));
  for (int s = 0; s < S; ++s) {
    const int warmup = std::min(M, S - s);
    std::vector<Item>& seq = sequence[static_cast<size_t>(s)];
    for (int m = 0; m < warmup; ++m) {
      seq.push_back({false, m});
    }
    for (int m = 0; m < M; ++m) {
      seq.push_back({true, m});
      if (m + warmup < M) {
        seq.push_back({false, m + warmup});
      }
    }
    TOFU_CHECK_EQ(seq.size(), static_cast<size_t>(2 * M));
  }

  // RunSim wants every dependency emitted first: sweep the stages, emitting each one's
  // sequence up to the first item whose cross-stage producer is not emitted yet. Every
  // sweep emits at least one item (the deepest runnable stage's), so at most 2 M S
  // sweeps run.
  std::vector<size_t> next(static_cast<size_t>(S), 0);
  std::vector<std::int32_t> last_on_stage(static_cast<size_t>(S), -1);
  for (int remaining = 2 * M * S; remaining > 0;) {
    bool progressed = false;
    for (int s = 0; s < S; ++s) {
      const PipelineStage& stage = plan.stages[static_cast<size_t>(s)];
      for (size_t& i = next[static_cast<size_t>(s)];
           i < sequence[static_cast<size_t>(s)].size(); ++i) {
        const Item item = sequence[static_cast<size_t>(s)][i];
        // The hand-off this item waits for: the previous stage's forward (activations)
        // or the next stage's backward (gradients) of the same micro-batch.
        const bool has_handoff = item.backward ? s < S - 1 : s > 0;
        SimNode work;
        work.device = s;
        work.duration_s = item.backward ? stage.bwd_seconds : stage.fwd_seconds;
        if (last_on_stage[static_cast<size_t>(s)] >= 0) {
          work.deps.push_back(last_on_stage[static_cast<size_t>(s)]);
        }
        if (has_handoff) {
          const int peer = item.backward ? s + 1 : s - 1;
          const std::int32_t upstream =
              (item.backward ? bwd_node : fwd_node)[static_cast<size_t>(peer)]
                                                   [static_cast<size_t>(item.micro)];
          if (upstream < 0) {
            break;
          }
          SimNode handoff;
          handoff.kind = SimNode::Kind::kLink;
          handoff.device = s;
          handoff.link = 0;
          handoff.post_delay_s =
              item.backward ? stage.transfer_bwd_seconds
                            : plan.stages[static_cast<size_t>(peer)].transfer_fwd_seconds;
          handoff.deps = {upstream};
          work.deps.push_back(sim.Add(std::move(handoff)));
        }
        const std::int32_t id = sim.Add(std::move(work));
        last_on_stage[static_cast<size_t>(s)] = id;
        (item.backward ? bwd_node : fwd_node)[static_cast<size_t>(s)]
                                             [static_cast<size_t>(item.micro)] = id;
        --remaining;
        progressed = true;
      }
    }
    TOFU_CHECK(progressed);  // a stall here would mean a dependency cycle
  }
  return RunSim(sim, ClusterSpec{}).makespan_s;
}

}  // namespace tofu
