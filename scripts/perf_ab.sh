#!/usr/bin/env bash
# Host wall-clock A/B runner for the perfbench benchmark.
#
# Usage: scripts/perf_ab.sh <ref> <workload> <pairs>
#
# Exports <ref> and HEAD with `git archive` and builds each with its own
# CARGO_TARGET_DIR (uncommitted changes are not measured). Then runs the
# BENCHMARK.json command, for its run_seconds, on both sides over seeds
# 1..<pairs>, one pair per seed, alternating which side runs first.
# Prints, per end-to-end metric, each side's median and quartiles, the
# HEAD/ref ratio of the medians, and how many pairs HEAD won, and appends
# one line with both sides' medians to results/trajectory.jsonl.
#
# Environment:
#   PERF_AB_DIR  scratch directory (default: ${TMPDIR:-/tmp}/perf_ab)
#
# Exits 1 when a build fails or any run reports correct=false.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <ref> <workload> <pairs>" >&2
    exit 2
fi
ref="$1" workload="$2" pairs="$3"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "error: <pairs> must be a positive integer, got '$pairs'" >&2
    exit 2
fi
if ! jq -e --arg w "$workload" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null; then
    echo "error: unknown workload '$workload' (see BENCHMARK.json)" >&2
    exit 2
fi
ref_sha="$(git rev-parse --verify "$ref^{commit}")"
change_sha="$(git rev-parse HEAD)"
seconds="$(jq -r .run_seconds BENCHMARK.json)"
dir="${PERF_AB_DIR:-${TMPDIR:-/tmp}/perf_ab}"
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    echo "note: uncommitted changes are not measured; HEAD is ${change_sha:0:12}" >&2
fi

# Source trees, as exported by git.
mkdir -p "$dir/runs"
declare -A src=([ref]="$dir/ref-src" [change]="$dir/change-src")
declare -A sha=([ref]="$ref_sha" [change]="$change_sha")
for side in ref change; do
    rm -rf "${src[$side]}"
    mkdir -p "${src[$side]}"
    git archive "${sha[$side]}" | tar -x -C "${src[$side]}"
done

# run_side SIDE SEED: one benchmark run; its stdout goes to runs/.
run_side() {
    local side="$1" seed="$2"
    local out="$dir/runs/$side-$workload-$seed.out"
    (cd "${src[$side]}" && CARGO_TARGET_DIR="$dir/$side-target" "${command[@]}" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        >"$out" 2>"$out.err" || true
    if ! tail -n 1 "$out" | jq -e '.correct == true' >/dev/null 2>&1; then
        echo "error: $side run (seed $seed) did not pass its checks; see $out.err" >&2
        exit 1
    fi
}

for side in ref change; do
    echo "== building $side (${src[$side]}) =="
    (cd "${src[$side]}" && CARGO_TARGET_DIR="$dir/$side-target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

for seed in $(seq 1 "$pairs"); do
    if ((seed % 2)); then order="ref change"; else order="change ref"; fi
    for side in $order; do
        echo "== $workload seed $seed: $side =="
        run_side "$side" "$seed"
    done
done

python3 - "$dir/runs" "$workload" "$pairs" "$ref_sha" "$change_sha" "$seconds" <<'EOF'
import json, os, statistics, sys

runs, workload, pairs, ref_sha, change_sha, seconds = sys.argv[1:]
pairs = int(pairs)
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def metrics(side, seed):
    with open(os.path.join(runs, f"{side}-{workload}-{seed}.out")) as f:
        last = f.read().strip().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

data = {s: [metrics(s, seed) for seed in range(1, pairs + 1)] for s in ("ref", "change")}
print(f"workload {workload}: {pairs} pairs, {seconds} s each, "
      f"ref {ref_sha[:12]}, HEAD {change_sha[:12]}")
print(f"{'metric':<16} {'ref median':>12} {'ref IQR':>12} {'change median':>14} "
      f"{'change IQR':>12} {'HEAD/ref':>10} {'wins':>6}")
medians = {"ref": {}, "change": {}}
for name in spec:
    ref = [r[name] for r in data["ref"]]
    chg = [c[name] for c in data["change"]]
    higher = spec[name]["better"] == "higher"
    wins = sum((c > r) if higher else (c < r) for r, c in zip(ref, chg))
    rm, cm = statistics.median(ref), statistics.median(chg)
    medians["ref"][name], medians["change"][name] = rm, cm
    rq, cq = quartiles(ref), quartiles(chg)
    ratio = f"{cm / rm:.3f}" if rm else "n/a"
    print(f"{name:<16} {rm:>12.4g} {rq[1] - rq[0]:>12.3g} {cm:>14.4g} "
          f"{cq[1] - cq[0]:>12.3g} {ratio:>10} {wins:>3}/{pairs}")

line = {
    "sha": change_sha[:12],
    "ref": ref_sha[:12],
    "workload": workload,
    "cores": os.cpu_count(),
    "pairs": pairs,
    "seconds": float(seconds),
    "medians": medians["change"],
    "ref_medians": medians["ref"],
}
with open("results/trajectory.jsonl", "a") as f:
    f.write(json.dumps(line, sort_keys=True) + "\n")
print("appended results/trajectory.jsonl")
EOF
