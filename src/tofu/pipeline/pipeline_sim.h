// Pipeline-aware extension of the event simulator: an explicit 1F1B (one-forward-
// one-backward) micro-batch schedule over a PipelinePlan's stages, used to validate the
// analytic stage-cost bound the same way interconnect/sim_bridge.h validates link
// pricing (tests/test_interconnect_diff.cc): analytic <= simulated <= analytic * C.
//
// The schedule is the canonical 1F1B: stage s runs min(M, S - s) warmup forwards, then
// alternates backward m / forward m + warmup until the batch drains. A stage's forward
// of micro-batch m waits for the previous stage's forward of m plus the boundary
// transfer; its backward waits for the next stage's backward of m plus the gradient
// transfer (and for its own forward of m). One work item at a time per stage.
#ifndef TOFU_PIPELINE_PIPELINE_SIM_H_
#define TOFU_PIPELINE_PIPELINE_SIM_H_

#include "tofu/pipeline/pipeline_plan.h"

namespace tofu {

// The per-stage critical-path lower bound (pipeline_plan.h header formula), computed
// from the plan's stage times and micro-batch count. compose.cc stores this as
// PipelinePlan::pipeline_seconds; exposed separately so tests can cross-check the
// stored figure.
double AnalyticPipelineSeconds(const PipelinePlan& plan);

// Makespan of the 1F1B schedule above, lowered onto the event simulator (sim/event_sim.h
// RunSim): each stage is one device compute stream, each stage's sequence a dependency
// chain, and each boundary hand-off a zero-byte link node delayed by the transfer time.
// Deterministic; >= the analytic bound by construction (the bound relaxes stage
// contention and schedule order).
double Simulate1F1BSeconds(const PipelinePlan& plan);

}  // namespace tofu

#endif  // TOFU_PIPELINE_PIPELINE_SIM_H_
