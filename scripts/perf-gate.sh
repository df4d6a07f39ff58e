#!/usr/bin/env bash
# perf-gate: the paired perfbench regression gate.
#
#   scripts/perf-gate.sh BASE_REV
#
# Checks BASE_REV out in a temporary git worktree (removed on exit) and,
# for every workload in this checkout's BENCHMARK.json, runs ten pairs
# of
#
#   bash perfbench/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
#
# in both checkouts. Pair S runs both sides with seed S, and the side
# that runs first alternates from pair to pair, so a host that drifts
# loads both sides alike. Each run's last output line is printed as one
# JSON record; scripts/perf-gate.jq compares them. The gate fails on a
# run that exits non-zero or reads "correct": false, on a change-side
# failed-operation share above the base's, and on any end_to_end metric
# whose change-side median is worse than the base median by more than
# that metric's bound. The median table prints either way.
#
# Workloads, metrics, bounds and the run length all come from
# BENCHMARK.json, so a workload a later benchmark change adds is gated
# without editing this script; one that BASE_REV's BENCHMARK.json does
# not list yet is skipped with a message. Run from anywhere inside the
# repository; needs git, jq and the Go toolchain.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/perf-gate.sh BASE_REV" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
pairs=10
secs=$(jq -r .run_seconds BENCHMARK.json)

tmp=$(mktemp -d)
base="$tmp/base"
cleanup() {
	git worktree remove --force "$base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$base_rev"
records="$tmp/records.jsonl"
: > "$records"
cp BENCHMARK.json "$tmp/bench.json"

# run SIDE DIR WORKLOAD SEED: one benchmark run, recorded.
run() {
	local code=0
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$secs" --trace 0) \
		> "$tmp/run.out" || code=$?
	jq -cn --arg side "$1" --arg workload "$3" --argjson seed "$4" --argjson exit "$code" \
		--arg line "$(tail -n 1 "$tmp/run.out")" \
		'{side: $side, workload: $workload, seed: $seed, exit: $exit,
		  result: (try ($line | fromjson) catch null)}' | tee -a "$records"
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	if ! jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' "$base/BENCHMARK.json" > /dev/null; then
		echo "perf-gate: skipping $w: $base_rev's BENCHMARK.json does not list it"
		jq --arg w "$w" '.workloads |= map(select(.name != $w))' "$tmp/bench.json" > "$tmp/bench.next"
		mv "$tmp/bench.next" "$tmp/bench.json"
		continue
	fi
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$base" "$w" "$seed"
			run head "$root" "$w" "$seed"
		else
			run head "$root" "$w" "$seed"
			run base "$base" "$w" "$seed"
		fi
	done
done

jq -s -r -L scripts --slurpfile bench "$tmp/bench.json" '
include "perf-gate";
def num: if . == null then "-" elif . >= 100 or . <= -100 then (. * 10 | round / 10 | tostring)
         else (. * 100000 | round / 100000 | tostring) end;
def pct: if . == null then "-" else (. * 1000 | round / 10 | tostring) + "%" end;
def pad($n): tostring | if length >= $n then . + " " else . + (" " * ($n - length)) end;
gate($bench[0]) as $r
| (["workload", "metric", "base", "head", "change", "bound", ""] | map(pad(16)) | add),
  ($r.rows[] | [.workload, .metric, (.base | num), (.head | num), (.change | pct), (.bound | pct),
                (if .ok then "ok" else "FAIL" end)] | map(pad(16)) | add),
  ($r.shares[] | [.workload, "failed share", (.base | pct), (.head | pct)] | map(pad(16)) | add),
  (if $r.ok then "perf-gate: PASS"
   else ($r.failures[] | "perf-gate: FAIL: \(.)"), "perf-gate: FAIL" end)
' "$records" | tee "$tmp/verdict"
[ "$(tail -n 1 "$tmp/verdict")" = "perf-gate: PASS" ]
