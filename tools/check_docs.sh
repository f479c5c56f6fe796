#!/usr/bin/env bash
# Docs drift check: every operator registered in src/tofu/tdl/ops_*.cc must be documented
# in docs/tdl.md (as a backticked `name`), and every partition-algorithm name returned by
# AlgorithmName (src/tofu/core/session.cc) must appear in both docs/serving.md and
# docs/api.md, and the shard-kernel cost recipe must stay in one place (KernelSeconds is
# called only under src/tofu/sim/), and so must the communication-cost table (halo_elems
# is read only under src/tofu/tdl/ and in partition/strategy.{h,cc}), and so must a
# plan's memory verdict (LivenessPeakShardBytes is called only under src/tofu/memory/;
# everything else asks PlanPeakShardBytes), and every search_stats key plan JSON
# carries must be documented in docs/search.md. Run from anywhere; exits non-zero
# listing the drift. CI runs this on every push (see .github/workflows/ci.yml).
set -u
repo="$(cd "$(dirname "$0")/.." && pwd)"
doc="$repo/docs/tdl.md"

if [[ ! -f "$doc" ]]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi

# Registration idioms: `xx.name = "op";` for hand-rolled OpTypeInfo, and
# `RegisterElementwise(registry, "op", arity)` for the element-wise family.
ops=$(
  {
    grep -hoE '\.name = "[a-z0-9_]+"' "$repo"/src/tofu/tdl/ops_*.cc |
      sed -E 's/.*"([a-z0-9_]+)"/\1/'
    grep -hoE 'RegisterElementwise\(registry, "[a-z0-9_]+"' "$repo"/src/tofu/tdl/ops_*.cc |
      sed -E 's/.*"([a-z0-9_]+)"?/\1/'
  } | sort -u
)

if [[ -z "$ops" ]]; then
  echo "check_docs: found no registered ops under src/tofu/tdl/ -- pattern drift?" >&2
  exit 1
fi

missing=0
total=0
for op in $ops; do
  total=$((total + 1))
  if ! grep -q "\`$op\`" "$doc"; then
    echo "check_docs: op '$op' is registered but not documented in docs/tdl.md" >&2
    missing=$((missing + 1))
  fi
done

if [[ $missing -gt 0 ]]; then
  echo "check_docs: $missing of $total registered ops missing from docs/tdl.md" >&2
  exit 1
fi
echo "check_docs: all $total registered ops documented in docs/tdl.md"

# Every algorithm name AlgorithmName can return must be documented in the serving
# protocol doc and the session API doc (both carry an algorithm table).
session_cc="$repo/src/tofu/core/session.cc"
algos=$(
  sed -n '/AlgorithmName(PartitionAlgorithm/,/^}/p' "$session_cc" |
    grep -oE 'return "[A-Za-z0-9-]+"' | sed -E 's/return "(.+)"/\1/' |
    grep -v '^?$' | sort -u
)

if [[ -z "$algos" ]]; then
  echo "check_docs: found no algorithm names in $session_cc -- pattern drift?" >&2
  exit 1
fi

algo_missing=0
algo_total=0
for algo in $algos; do
  algo_total=$((algo_total + 1))
  for adoc in "$repo/docs/serving.md" "$repo/docs/api.md"; do
    if ! grep -q "$algo" "$adoc"; then
      echo "check_docs: algorithm '$algo' is not documented in ${adoc#"$repo"/}" >&2
      algo_missing=$((algo_missing + 1))
    fi
  done
done

if [[ $algo_missing -gt 0 ]]; then
  echo "check_docs: $algo_missing algorithm doc entries missing" >&2
  exit 1
fi
echo "check_docs: all $algo_total algorithm names documented in docs/serving.md and docs/api.md"

# The memory-planner doc must exist and be cross-linked from the docs that reference
# its machinery: search (the repair pass runs inside the search), cost model (swap and
# recompute pricing), and the session API (MemorySchedule in plan JSON + responses).
memdoc="$repo/docs/memory.md"
if [[ ! -f "$memdoc" ]]; then
  echo "check_docs: missing $memdoc (memory-planner doc)" >&2
  exit 1
fi

link_missing=0
for ldoc in "$repo/docs/search.md" "$repo/docs/cost_model.md" "$repo/docs/api.md"; do
  if ! grep -q 'memory\.md' "$ldoc"; then
    echo "check_docs: ${ldoc#"$repo"/} does not link to docs/memory.md" >&2
    link_missing=$((link_missing + 1))
  fi
done
if [[ $link_missing -gt 0 ]]; then
  echo "check_docs: $link_missing docs missing the memory.md cross-link" >&2
  exit 1
fi
echo "check_docs: docs/memory.md present and cross-linked from search, cost_model, api"

# One shard-kernel oracle: outside src/tofu/sim/, kernels are priced through
# ShardKernelSeconds (sim/lowering.h), never by calling KernelSeconds directly -- a second
# copy of the recipe is how the search's predictions and the simulator drift apart.
copies=$(grep -rnE '(^|[^A-Za-z0-9_])KernelSeconds\(' "$repo/src/tofu" --include='*.cc' --include='*.h' |
  grep -v "^$repo/src/tofu/sim/")
if [[ -n "$copies" ]]; then
  echo "check_docs: KernelSeconds( called outside src/tofu/sim/ (use ShardKernelSeconds):" >&2
  echo "${copies//$repo\//}" >&2
  exit 1
fi
echo "check_docs: KernelSeconds is called only under src/tofu/sim/"

# One communication-cost table: the Lemma-1 terms (InputCommBytes / OutputCommBytes in
# partition/strategy.h) are the only code that sizes a halo exchange. Outside tdl/, which
# derives halo_elems, any other reader of it is a second copy of the table.
copies=$(grep -rnE '(^|[^A-Za-z0-9_])halo_elems([^A-Za-z0-9_]|$)' "$repo/src/tofu" \
  --include='*.cc' --include='*.h' |
  grep -v "^$repo/src/tofu/tdl/" | grep -vE "^$repo/src/tofu/partition/strategy\.(h|cc):")
if [[ -n "$copies" ]]; then
  echo "check_docs: halo_elems read outside src/tofu/tdl/ and partition/strategy.{h,cc}" \
    "(price through InputCommBytes):" >&2
  echo "${copies//$repo\//}" >&2
  exit 1
fi
echo "check_docs: halo_elems is read only under src/tofu/tdl/ and in partition/strategy.{h,cc}"

# One memory verdict: a plan's peak is PlanPeakShardBytes (memory/liveness.h), which
# honours an attached schedule, a pipeline's stage peaks and a stage mask. Outside
# src/tofu/memory/, a direct LivenessPeakShardBytes call is a second verdict that
# ignores all three, so two layers can disagree on whether one plan fits.
copies=$(grep -rnE '(^|[^A-Za-z0-9_])LivenessPeakShardBytes\(' "$repo/src/tofu" \
  --include='*.cc' --include='*.h' | grep -v "^$repo/src/tofu/memory/")
if [[ -n "$copies" ]]; then
  echo "check_docs: LivenessPeakShardBytes( called outside src/tofu/memory/" \
    "(use PlanPeakShardBytes):" >&2
  echo "${copies//$repo\//}" >&2
  exit 1
fi
echo "check_docs: LivenessPeakShardBytes is called only under src/tofu/memory/"

# Every key PlanToJson writes inside "search_stats" must be documented (backticked) in
# docs/search.md: those counters are serialized into plans and digests, so a change to
# what one counts is a change the search doc has to explain.
plan_io="$repo/src/tofu/partition/plan_io.cc"
stats_keys=$(
  sed -n '/Key("search_stats").BeginObject()/,/EndObject()/p' "$plan_io" |
    grep -oE 'Key\("[a-z_]+"\)' | sed -E 's/Key\("(.+)"\)/\1/' | grep -v '^search_stats$' |
    sort -u
)
if [[ -z "$stats_keys" ]]; then
  echo "check_docs: found no search_stats keys in $plan_io -- pattern drift?" >&2
  exit 1
fi
stats_missing=0
stats_total=0
for key in $stats_keys; do
  stats_total=$((stats_total + 1))
  if ! grep -q "\`$key\`" "$repo/docs/search.md"; then
    echo "check_docs: search_stats key '$key' is serialized but not documented in docs/search.md" >&2
    stats_missing=$((stats_missing + 1))
  fi
done
if [[ $stats_missing -gt 0 ]]; then
  echo "check_docs: $stats_missing serialized search_stats keys missing from docs/search.md" >&2
  exit 1
fi
echo "check_docs: all $stats_total serialized search_stats keys documented in docs/search.md"
