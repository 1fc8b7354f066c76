#!/usr/bin/env bash
# CI perf-regression gate: run the quick benchmark suite, check the report
# is byte-deterministic (across reruns AND across host thread counts), and
# compare it against the checked-in baseline. The estplan, kway, reorder
# and chain suites and a held-gate br-net flood get the same determinism
# check, plus their own cell asserts.
#
# Usage: scripts/bench_gate.sh [cycles-threshold-pct]
#
# Exits nonzero if any tracked metric regresses beyond its threshold
# (default: 5% on simulated cycle counts), if any output is not
# reproducible, or if the baseline is missing. Refresh the baseline with:
#   blockreorg-cli bench run --suite quick --no-host \
#       --out results/baselines/BENCH_quick.json
#
# Byte-compares use --no-host (the wall-clock host section legitimately
# differs run to run); the baseline comparison ignores the host section by
# construction, so the final report keeps it for throughput visibility.

set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${1:-5}"
baseline="results/baselines/BENCH_quick.json"
cli="cargo run --release --quiet --bin blockreorg-cli --"

if [[ ! -f "$baseline" ]]; then
    echo "error: baseline $baseline missing" >&2
    exit 1
fi

# same_bytes A B WHAT: fail with a diff unless A and B are byte-identical.
same_bytes() {
    if ! cmp -s "$1" "$2"; then
        echo "error: $3 differs ($1 vs $2)" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
}

# require FILE PATTERN...: fail unless every PATTERN starts a line of FILE
# (a metric family) — or, for patterns with a '{' or a space, appears as a
# fixed string (one labelled cell or one exact sample).
require() {
    local file="$1" pattern
    shift
    for pattern in "$@"; do
        if [[ "$pattern" == *[{\ ]* ]]; then
            grep -qF "$pattern" "$file" && continue
        else
            grep -q "^$pattern" "$file" && continue
        fi
        echo "error: expected '$pattern' in $file" >&2
        local family="${pattern%%\{*}"
        grep "^${family%% *}" "$file" >&2 || true
        exit 1
    done
}

# run_suite SUITE THREADS TAG [ARGS...]: one --no-host bench run writing
# BENCH_SUITE.TAG.json and the metrics SUITE.TAG.prom(.jsonl).
run_suite() {
    local suite="$1" threads="$2" tag="$3"
    shift 3
    BR_THREADS="$threads" $cli bench run --suite "$suite" --no-host "$@" \
        --out "BENCH_$suite.$tag.json" --metrics "$suite.$tag.prom" >/dev/null
}

# net_flood NAME THREADS TAG: flood a held br-net server (worker gate
# closed, shed threshold 6, ample quota) with 16 alternating-lane
# submissions, which admit 6 and shed 10 purely by arrival order; then
# Release drains and Shutdown exits the server, which dumps its metrics
# to NAME.TAG.prom(.jsonl).
net_flood() {
    local name="$1" threads="$2" tag="$3"
    rm -f "$name.$tag.port"
    BR_THREADS="$threads" $cli serve --listen 127.0.0.1:0 \
        --port-file "$name.$tag.port" --hold --workers 2 \
        --shed-threshold 6 --quota 64 --metrics "$name.$tag.prom" \
        >/dev/null &
    local server_pid=$!
    local tries=0
    until [[ -s "$name.$tag.port" ]]; do
        tries=$((tries + 1))
        if [[ $tries -gt 100 ]]; then
            echo "error: serve never wrote $name.$tag.port" >&2
            kill "$server_pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
    $cli client --connect "$(cat "$name.$tag.port")" --client-id flood \
        --spec 'rmat=6,4' --count 16 --lane alternate \
        --release --shutdown --quiet >/dev/null
    wait "$server_pid"
}

# determinism NAME RUNNER [ARGS...]: run RUNNER at BR_THREADS=1 (t1), at 8
# (t8), and at 8 again (rerun); then byte-compare t1 vs t8 and t8 vs rerun
# for the report (when the runner writes one) and both metrics files.
determinism() {
    local name="$1" runner="$2" pair a b
    shift 2
    "$runner" "$name" 1 t1 "$@"
    "$runner" "$name" 8 t8 "$@"
    "$runner" "$name" 8 rerun "$@"
    for pair in "t1 t8" "t8 rerun"; do
        read -r a b <<<"$pair"
        if [[ -f "BENCH_$name.$a.json" ]]; then
            same_bytes "BENCH_$name.$a.json" "BENCH_$name.$b.json" "$name report"
        fi
        same_bytes "$name.$a.prom" "$name.$b.prom" "$name metrics exposition"
        same_bytes "$name.$a.prom.jsonl" "$name.$b.prom.jsonl" "$name metrics JSONL"
    done
}

# cleanup NAME: remove every intermediate file of one determinism step.
cleanup() {
    rm -f "BENCH_$1".*.json "$1".*.prom "$1".*.prom.jsonl "$1".*.port
}

echo "== quick determinism: report and metrics byte-identical across BR_THREADS=1/8 and reruns =="
# The default --metrics dump contains only deterministic families, so the
# Prometheus text and the JSONL byte-compare too (each process ran the
# identical job multiset).
determinism quick run_suite
# Sanity: the dump actually carries the pipeline's instruments.
require quick.t8.prom br_sim_kernel_launches_total br_spgemm_rows_merged_total \
    br_cache_hits_total br_jobs_submitted_total br_span_total \
    br_sim_profile_memo_hits_total
echo "ok: quick report and metrics are byte-identical across thread counts and reruns"

echo "== baseline byte-identity: instrumentation must not move a single byte =="
# Everything the report tracks is a pure function of simulated execution,
# so a fresh --no-host run must reproduce the checked-in baseline exactly.
# The only legitimate difference is the git_sha provenance line.
normalize() {
    grep -v '"git_sha"' "$1"
}
if ! cmp -s <(normalize BENCH_quick.t1.json) <(normalize "$baseline"); then
    echo "error: BENCH_quick.json deviates byte-for-byte from $baseline" >&2
    diff <(normalize "$baseline") <(normalize BENCH_quick.t1.json) | head -40 >&2 || true
    exit 1
fi
echo "ok: fresh report is byte-identical to the checked-in baseline"

echo "== determinism check: non-default --bins must be byte-identical too =="
run_suite quick 8 bins --bins 4,512
same_bytes BENCH_quick.t1.json BENCH_quick.bins.json "BENCH_quick.json under --bins 4,512"
cleanup quick
echo "ok: row-bin thresholds never change the report"

echo "== net flood determinism: admission accounting is a pure function of load =="
# The strict exposition must byte-compare across BR_THREADS=1/8 and across
# reruns — shedding never depends on how fast workers drain.
determinism net net_flood
require net.t8.prom br_net_requests_total br_net_admitted_total br_net_shed_total \
    br_net_saturation_total br_net_rejects_total \
    br_net_results_total br_net_drain_notices_total
# The held-gate flood admits exactly 6 and sheds exactly 10, per lane 3/5.
require net.t8.prom 'br_net_shed_total{lane="batch"} 5' \
    'br_net_shed_total{lane="interactive"} 5' \
    'br_net_results_total{lane="batch"} 3' \
    'br_net_results_total{lane="interactive"} 3'
cleanup net
echo "ok: shed/quota accounting is byte-identical across thread counts and reruns"

echo "== estimator determinism: estplan must be byte-identical across threads and reruns =="
# The sampling estimator is seeded from the operands' structure hashes and
# the sample count only, so the estplan report (plan section included) and
# the metrics exposition must byte-compare — estimation never reads wall
# clock, thread order, or matrix values.
determinism estplan run_suite
require estplan.t8.prom br_plan_estimates_total br_plan_exact_total \
    br_plan_sampled_cols_total br_plan_ops_total
cleanup estplan
echo "ok: estimator planning is byte-identical across thread counts and reruns"

echo "== kway determinism: forced k-way merge must be byte-identical across threads and reruns =="
# The kway suite forces the k-way tournament bin open per case, so heavy
# rows run through the loser-tree merge on the host numeric path and the
# kway-merge kernel in the simulated stream. Pop order is fixed by
# (column, run-generation) keys, so the report and the metrics exposition
# (kway instrument cells included) must byte-compare.
determinism kway run_suite
# The kway instrument cells must be present — and the bin actually used.
require kway.t8.prom 'br_spgemm_rows_merged_total{bin="kway"}' br_spgemm_kway_runs_total
if grep -qF 'br_spgemm_rows_merged_total{bin="kway"} 0' kway.t8.prom; then
    echo "error: kway suite merged no rows through the kway bin" >&2
    exit 1
fi
cleanup kway
echo "ok: forced k-way merge is byte-identical across thread counts and reruns"

echo "== reorder determinism: forced row reordering must be byte-identical across threads and reruns =="
# The reorder suite plans every dataset under each strategy; permutations
# are pure functions of A's structure, and the plan un-permutes its output,
# so the report and the metrics exposition (reorder instrument cells
# included) must byte-compare.
determinism reorder run_suite
# Every strategy cell must be pre-registered — and the non-trivial ones used.
for strategy in none degree rcm cluster; do
    require reorder.t8.prom "br_reorder_plans_total{strategy=\"$strategy\"}"
done
for strategy in degree rcm cluster; do
    if grep -qF "br_reorder_plans_total{strategy=\"$strategy\"} 0" reorder.t8.prom; then
        echo "error: reorder suite built no $strategy plans" >&2
        exit 1
    fi
done
cleanup reorder
echo "ok: row reordering is byte-identical across thread counts and reruns"

echo "== chain determinism: chained workloads must be byte-identical across threads and reruns =="
# The chain suite runs each of the four canonical workloads against a
# fresh per-case plan cache, so per-step hit/miss counters are pure
# functions of the chain program — the report (chain section included)
# and the metrics exposition (br_chain_* families included) must
# byte-compare.
determinism chain run_suite
require chain.t8.prom br_chain_steps_total br_chain_step_cache_hits_total \
    br_chain_step_cache_misses_total br_chain_structure_churn_total \
    br_chain_fill_in_permille
# The designed contrast, cell by cell: every galerkin case serves its
# value-refreshed pass from the plan cache (exactly 2 hits), while every
# iterated-squaring case churns structure on all 3 steps (0 hits,
# 3 misses). Both workloads run over 3 datasets each.
if ! awk '
    /"workload":/   { w = $2; gsub(/[",]/, "", w) }
    /"cache_hits":/   { v = $2; gsub(/,/, "", v)
                        if (w == "galerkin") { g++; if (v != 2) bad = 1 }
                        if (w == "square:3" && v != 0) bad = 1 }
    /"cache_misses":/ { v = $2; gsub(/,/, "", v)
                        if (w == "square:3") { s++; if (v != 3) bad = 1 } }
    END { exit (bad || g != 3 || s != 3) }
' BENCH_chain.t8.json; then
    echo "error: chain suite hit/miss contrast broken (want galerkin=2 hits, square:3=3 misses per case)" >&2
    grep -E '"(workload|cache_hits|cache_misses)":' BENCH_chain.t8.json >&2 || true
    exit 1
fi

echo "== compare chain suite against results/baselines/BENCH_chain.json =="
$cli bench compare results/baselines/BENCH_chain.json BENCH_chain.t1.json \
    --cycles-pct "$threshold"
cleanup chain
echo "ok: chained workloads are byte-identical across thread counts and reruns"

echo "== bench gate: quick suite, cycle threshold ${threshold}% =="
$cli bench run --suite quick --out BENCH_quick.json

echo "== compare against $baseline =="
$cli bench compare "$baseline" BENCH_quick.json --cycles-pct "$threshold"
