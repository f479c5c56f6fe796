#!/usr/bin/env python3
"""Gate on bench_table1_search --json results against a checked-in baseline.

Usage: check_perf.py <baseline.json> <current.json> [--max-slowdown X]
                     [--min-speedup X] [--serve serve.json]

Fails (exit 1) when:
  * a baseline model has no matching row in the current results (dropping or renaming
    a model must not silently disable its gate);
  * the recursive search wall time regressed more than --max-slowdown (default 3x)
    over the baseline -- loose enough to absorb CI machine variance, tight enough to
    catch an accidental return to the string-keyed search;
  * with --min-speedup, a row whose baseline entry records pre_pr_recursive_seconds
    (the wall time measured before the dense-lattice engine path landed, same best-of-3
    methodology) is not at least that factor faster now -- the floor under the
    big-graph, many-worker optimization, so it cannot silently rot away;
  * the machine-independent search-effort counters (states_explored,
    cost_table_entries, dominated_pruned_states, pruned_table_cells) drifted -- these
    are deterministic, so any change means the search semantics changed without
    re-recording the baseline;
  * the plan's communication bytes changed at all (same reasoning);
  * a Table 1 row's flat search space drifted: flat_configs_total, the joint
    configuration count of the flat "DP with coarsening", is a deterministic function
    of the coarsened graph and the worker count, so it must equal the baseline exactly
    (the flat search's evaluated count and projection depend on host speed and are not
    gated);
  * the unconstrained plan itself drifted: plan_digest is an FNV-1a fingerprint of the
    normalized plan JSON (cuts, strategies, costs, per-step peaks -- everything but the
    search wall time), so the gate catches a changed plan even when its comm total
    happens to be unchanged, keeping the no-budget search path bit-identical;
  * an exact search became approximate (an over-cap search);
  * the Session plan cache did not hit on a repeated identical request, or the cached
    plan was not byte-identical to a fresh session's plan (the serving-path contract of
    core/session.h -- fields session_cache_hit / cached_plan_identical in the bench
    JSON; their absence also fails, so the gate cannot be disabled by dropping them);
  * a topology row's simulated critical path undercuts its analytic estimate -- the
    congestion/dilation number is a lower bound on any schedule (interconnect/
    interconnect.h), so sim < estimate means one of the two models broke;
  * a hybrid row (bench_table1_search's multi-node hierarchy comparison) breaks the
    hybrid-parallelism contract: the hybrid plan's estimated total time must not
    exceed pure Tofu's or DataParallel's on the same topology, it must STRICTLY beat
    pure Tofu for Transformer-48 at >= 32 workers (the regime ROADMAP item 3 exists
    for), and a multi-stage pipeline's analytic 1F1B makespan must lower-bound the
    1F1B event simulation while staying within 2x of it (the pipeline differential
    contract, pipeline/pipeline_sim.h);
  * a memory-frontier row (bench_table1_search's budget-ladder sweep, model names
    ending in @frontier) breaks the memory-planner contract (memory/repair.h): its
    schedule-free plan digest or its deterministic peak bytes drifted from the
    baseline; a budget at or above the full-offload floor came back infeasible (the
    repair pass must always find a schedule there) or one below the floor came back
    feasible; a feasible point's scheduled peak exceeds its budget; tightening the
    budget DECREASED the analytic swap+recompute overhead (the prefix-greedy repair
    marks supersets as budgets shrink, so overhead must be monotone); or a point's
    event-replayed overhead falls outside [analytic, 2x analytic];
  * with --serve, the bench_serve --json results show a nondeterministic plan, any
    request error, cache counters that do not add up to the request count, or a final
    hit rate below --min-hit-rate (the serve-path contract: a replayed spec mix must be
    served almost entirely from the plan cache).
"""
import argparse
import json
import sys


def check_serve(path: str, min_hit_rate: float) -> bool:
    """Gate bench_serve --json output; returns True on failure."""
    with open(path) as f:
        serve = json.load(f)
    failed = False
    if serve.get("deterministic") is not True:
        print(
            f"FAIL  serve: deterministic is {serve.get('deterministic')!r} (concurrent "
            "plans must be byte-identical to fresh single-threaded searches)"
        )
        failed = True
    runs = serve.get("runs", [])
    if not runs:
        print("FAIL  serve: no runs in the serve results")
        failed = True
    for run in runs:
        label = f"serve threads={run.get('threads')}"
        if run.get("errors", 1) != 0:
            print(f"FAIL  {label}: {run.get('errors')} request errors")
            failed = True
        served = run.get("hits", 0) + run.get("misses", 0) + run.get("coalesced", 0)
        if served != serve.get("requests"):
            print(
                f"FAIL  {label}: hits+misses+coalesced = {served} != requests "
                f"{serve.get('requests')} (every validated request must be a hit, a "
                "miss, or a coalesced wait -- core/session.h PlanCacheStats)"
            )
            failed = True
    if runs:
        final = runs[-1]
        rate = final.get("hit_rate", 0.0)
        status = "ok" if rate >= min_hit_rate else f"FAIL (< {min_hit_rate})"
        print(f"serve threads={final.get('threads')}: hit rate {rate:.3f} {status}")
        if rate < min_hit_rate:
            failed = True
    return failed


def check_frontier_row(row: dict, base: dict | None) -> bool:
    """Gate one @frontier row from the memory-budget ladder; returns True on failure."""
    label = row["model"]
    failed = False
    if base is not None:
        for field in (
            "schedule_free_digest",
            "unconstrained_peak_bytes",
            "min_achievable_peak_bytes",
        ):
            if field in base and row.get(field) != base[field]:
                print(
                    f"FAIL  {label}: {field} {row.get(field)!r} != baseline "
                    f"{base[field]!r} (the schedule-free plan or the deterministic "
                    "memory accounting drifted; re-record the baseline if intentional)"
                )
                failed = True
    points = row.get("frontier", [])
    if not points:
        print(f"FAIL  {label}: frontier row has no budget points")
        return True
    floor = row.get("min_achievable_peak_bytes", 0)
    prev_overhead = None
    for point in points:  # emitted in decreasing-budget order
        budget = point["budget_bytes"]
        tag = f"{label} @ {budget} B"
        if budget >= floor and not point["feasible"]:
            print(
                f"FAIL  {tag}: infeasible at or above the full-offload floor "
                f"{floor} B (the repair pass must always find a schedule there)"
            )
            failed = True
        if budget < floor and point["feasible"]:
            print(
                f"FAIL  {tag}: feasible below the full-offload floor {floor} B "
                "(no schedule can fit a single op's working set)"
            )
            failed = True
        if not point["feasible"]:
            continue
        if point["peak_shard_bytes"] > budget:
            print(
                f"FAIL  {tag}: scheduled peak {point['peak_shard_bytes']} B exceeds "
                "the budget it was repaired to"
            )
            failed = True
        overhead = point["memory_overhead_seconds"]
        sim = point["simulated_memory_seconds"]
        if prev_overhead is not None and overhead < prev_overhead * (1.0 - 1e-9):
            print(
                f"FAIL  {tag}: overhead {overhead:.6g}s < {prev_overhead:.6g}s at the "
                "looser budget above it (prefix-greedy repair marks supersets as the "
                "budget tightens, so overhead must be monotone)"
            )
            failed = True
        prev_overhead = max(prev_overhead or 0.0, overhead)
        if overhead > 0.0 and not (
            overhead * (1.0 - 1e-9) <= sim <= overhead * 2.0 * (1.0 + 1e-9)
        ):
            print(
                f"FAIL  {tag}: replayed overhead {sim:.6g}s outside [1x, 2x] of the "
                f"analytic {overhead:.6g}s (memory/sim_replay.h differential contract)"
            )
            failed = True
    feasible = [p for p in points if p["feasible"]]
    print(
        f"{label}: {len(feasible)}/{len(points)} budgets feasible, overhead "
        f"{feasible[0]['memory_overhead_seconds']*1e3:.1f} -> "
        f"{feasible[-1]['memory_overhead_seconds']*1e3:.1f} ms "
        f"{'FAIL' if failed else 'ok'}"
    )
    return failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-slowdown", type=float, default=3.0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="minimum speedup vs a baseline row's pre_pr_recursive_seconds "
        "(rows without that field are exempt)",
    )
    parser.add_argument("--serve", help="bench_serve --json output to gate")
    parser.add_argument("--min-hit-rate", type=float, default=0.9)
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    base_by_model = {r["model"]: r for r in baseline["results"]}
    current_models = {r["model"] for r in current["results"]}
    failed = False
    for missing in sorted(set(base_by_model) - current_models):
        print(f"FAIL  {missing}: in baseline but absent from current results")
        failed = True
    for row in current["results"]:
        if "frontier" in row:
            # Memory-budget ladder rows have their own contract (and no search-timing
            # or serving-path fields), so the generic gates below do not apply.
            if check_frontier_row(row, base_by_model.get(row["model"])):
                failed = True
            continue
        # The serving-path flags gate every current row, baseline entry or not --
        # dropping or renaming a model must not disable them.
        for flag in ("session_cache_hit", "cached_plan_identical"):
            if row.get(flag) is not True:
                print(
                    f"FAIL  {row['model']}: {flag} is {row.get(flag)!r} (repeated "
                    "requests must be served from the plan cache with a byte-identical "
                    "plan)"
                )
                failed = True
        base = base_by_model.get(row["model"])
        if base is None:
            print(f"NOTE  {row['model']}: not in baseline, skipping timing gates")
            continue
        slowdown = row["recursive_seconds"] / max(base["recursive_seconds"], 1e-12)
        status = "ok"
        if slowdown > args.max_slowdown:
            status = f"FAIL (> {args.max_slowdown}x baseline)"
            failed = True
        print(
            f"{row['model']}: {row['recursive_seconds']*1e3:.1f} ms vs baseline "
            f"{base['recursive_seconds']*1e3:.1f} ms ({slowdown:.2f}x) {status}"
        )
        pre_pr = base.get("pre_pr_recursive_seconds")
        if args.min_speedup is not None and pre_pr is not None:
            speedup = pre_pr / max(row["recursive_seconds"], 1e-12)
            status = "ok"
            if speedup < args.min_speedup:
                status = f"FAIL (< required {args.min_speedup}x)"
                failed = True
            print(
                f"{row['model']}: {speedup:.2f}x faster than pre-PR "
                f"{pre_pr*1e3:.1f} ms {status}"
            )
        for counter in (
            "states_explored",
            "cost_table_entries",
            "dominated_pruned_states",
            "pruned_table_cells",
        ):
            if row.get(counter) != base.get(counter):
                print(
                    f"FAIL  {row['model']}: {counter} {row.get(counter)} != baseline "
                    f"{base.get(counter)} (search semantics drifted; re-record the "
                    "baseline if intentional)"
                )
                failed = True
        if "flat_configs_total" in base and row.get("flat_configs_total") != base[
            "flat_configs_total"
        ]:
            print(
                f"FAIL  {row['model']}: flat_configs_total {row.get('flat_configs_total')} "
                f"!= baseline {base['flat_configs_total']} (the flat search space "
                "drifted; re-record the baseline if intentional)"
            )
            failed = True
        if row["recursive_comm_bytes"] != base["recursive_comm_bytes"]:
            print(
                f"FAIL  {row['model']}: comm bytes {row['recursive_comm_bytes']} != "
                f"baseline {base['recursive_comm_bytes']} (plan drifted; re-record the "
                "baseline if intentional)"
            )
            failed = True
        if "plan_digest" in base and row.get("plan_digest") != base["plan_digest"]:
            print(
                f"FAIL  {row['model']}: plan_digest {row.get('plan_digest')!r} != "
                f"baseline {base['plan_digest']!r} (the unconstrained plan is no longer "
                "bit-identical; re-record the baseline if intentional)"
            )
            failed = True
        if base.get("exact", True) and not row.get("exact", True):
            print(f"FAIL  {row['model']}: search became approximate (over the state cap)")
            failed = True
    for row in current["results"]:
        est = row.get("estimated_comm_seconds")
        sim = row.get("simulated_comm_seconds")
        if est and sim and sim < est * (1.0 - 1e-9):
            print(
                f"FAIL  {row['model']}: simulated comm {sim:.6g}s < analytic estimate "
                f"{est:.6g}s (the estimate is a lower bound on any schedule)"
            )
            failed = True
    for row in current["results"]:
        # Hybrid-parallelism ordering gates (rows emitted by RunHybrid).
        hybrid = row.get("hybrid_total_seconds")
        if hybrid is None:
            continue
        pure = row.get("pure_total_seconds", 0.0)
        dp = row.get("dp_total_seconds", 0.0)
        label = row["model"]
        if hybrid > pure * (1.0 + 1e-9):
            print(
                f"FAIL  {label}: hybrid total {hybrid:.6g}s > pure-Tofu total "
                f"{pure:.6g}s (the hybrid search must never lose to its own S=1 "
                "candidate)"
            )
            failed = True
        if hybrid > dp * (1.0 + 1e-9):
            print(
                f"FAIL  {label}: hybrid total {hybrid:.6g}s > DataParallel total "
                f"{dp:.6g}s"
            )
            failed = True
        strict = label.startswith("Transformer-48") and row.get("workers", 0) >= 32
        if strict and not hybrid < pure:
            print(
                f"FAIL  {label}: hybrid total {hybrid:.6g}s does not strictly beat "
                f"pure Tofu {pure:.6g}s (Transformer-48 at >= 32 workers on the "
                "oversubscribed hierarchy is the regime hybrid parallelism exists for)"
            )
            failed = True
        analytic = row.get("pipeline_seconds", 0.0)
        sim_1f1b = row.get("pipeline_sim_seconds", 0.0)
        if analytic > 0.0:
            if sim_1f1b < analytic * (1.0 - 1e-9):
                print(
                    f"FAIL  {label}: 1F1B simulation {sim_1f1b:.6g}s < analytic "
                    f"makespan {analytic:.6g}s (the analytic cost is a lower bound on "
                    "any 1F1B schedule)"
                )
                failed = True
            if sim_1f1b > analytic * 2.0:
                print(
                    f"FAIL  {label}: 1F1B simulation {sim_1f1b:.6g}s > 2x analytic "
                    f"makespan {analytic:.6g}s (the analytic model lost touch with "
                    "the schedule it prices)"
                )
                failed = True
        print(
            f"{label}: hybrid {hybrid*1e3:.1f} ms (S={row.get('pipeline_stages')}) vs "
            f"pure {pure*1e3:.1f} ms vs DP {dp*1e3:.1f} ms"
        )
    if args.serve and check_serve(args.serve, args.min_hit_rate):
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
