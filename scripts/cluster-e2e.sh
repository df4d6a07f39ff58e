#!/bin/sh
# cluster-e2e: distributed-execution end-to-end for the coordinator /
# worker split (internal/dispatch).
#
# Phase 1 — fallback: a coordinator with no registered workers must run
# multi-shard jobs in-process (byte-identical to plain serving), with
# zero shards leased.
#
# Phase 2 — worker death mid-sweep: submit a swept+replicated spec to a
# coordinator with one worker, kill -9 that worker while it holds a
# shard lease, start a replacement, and require: the dead worker's
# shard is requeued after lease expiry (midas_shard_requeues_total
# {reason="expired"} >= 1), the job completes, accepted completions
# equal the spec's shard count exactly — the "zero duplicate engine-run
# side effects" guarantee — and the merged result is byte-identical to
# `midas-sim -spec` run single-process on the same spec (modulo the
# meta tool line, exactly like serve-smoke).
#
# Phase 3 — kill -9 the coordinator mid-sweep: boot a coordinator with
# a store (which turns on the dispatch journal under <store>/journal),
# submit a sweep, SIGKILL the whole server process once at least one
# shard result is durably published, and restart it over the same
# store dir. The restart must replay the journaled job
# (midas_jobs_resumed_total = 1), answer every already-published shard
# from the store without re-execution (post-restart accepted
# completions = shards - midas_shards_recovered_total), byte-match the
# single-process golden, and then serve a second sweep sharing a sweep
# point with the first via store hits. The journal must be empty after
# both jobs finish.
#
# Phase 4 — shared store, sibling coordinators, worker direct publish:
# coordinator A and a worker share one -store-dir directory; the
# worker publishes each shard result directly into the store and
# acknowledges by hash+digest (the payload never transits the dispatch
# HTTP body). The worker is killed -9 inside the acknowledgement window
# (MIDAS_WORKER_HOLD_AFTER_PUBLISH) — after its store write, before its
# completion POST — and the coordinator must recover that shard from
# the store at lease expiry with zero re-execution. Then coordinator B
# boots over the same directory and must serve the same spec as a store
# hit (cached=true, cache_tier=store, zero engine runs), byte-identical
# to A's body, including via GET /v1/results/{hash}.
#
# Phase 5 — shutdown latency: an idle worker's lease request is parked
# at the coordinator, so SIGTERM to a coordinator with a live, idle
# worker must still print "midas-serve stopped" within 1s — closing the
# coordinator answers the parked request instead of leaving the
# listener shutdown to wait out the hold.
#
# Environment knobs:
#   CLUSTER_E2E_FULL  non-empty = full scale (nightly); default is the
#                     short CI mode (make cluster-e2e)
#   CLUSTER_E2E_OUT   directory to copy reports/artifacts into (optional)
#
# Requires: curl. Run from the repository root.
set -eu

# Shard wall time is ~0.3ms per topology at parallelism 1; the victim
# workers run under GOMAXPROCS=1, so the engine runs their shards one
# topology at a time and each shard comfortably outlives the moment we
# observe its lease and kill it. The lease TTL must exceed a shard's
# wall time (at any worker's GOMAXPROCS), or healthy workers'
# completions would arrive after their own leases expired.
if [ -n "${CLUSTER_E2E_FULL:-}" ]; then
    topos=16384 sweep='[70001, 70002, 70003]' sweep3='[80001, 80002, 80003]' sweep4='[90001, 90002, 90003]' reps=2 shards=6 lease_ttl=20s
else
    topos=6144 sweep='[70001, 70002]' sweep3='[80001, 80002]' sweep4='[90001, 90002]' reps=2 shards=4 lease_ttl=6s
fi

tmp=$(mktemp -d)
serve_pid=""
serve_b_pid=""
worker_a_pid=""
worker_b_pid=""
cleanup() {
    status=$?
    for pid in "$serve_pid" "$serve_b_pid" "$worker_a_pid" "$worker_b_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
    exit $status
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-e2e: FAIL: $*" >&2
    for log in serve.log serve-journal.log serve-restart.log \
        serve-a4.log serve-b4.log serve-5.log \
        worker-a.log worker-b.log worker-c.log worker-d.log \
        worker-e.log worker-f.log worker-g.log; do
        [ -f "$tmp/$log" ] && tail -n 15 "$tmp/$log" | sed "s/^/cluster-e2e: $log: /" >&2
    done
    exit 1
}

# json_field FILE KEY -> first string value of KEY.
json_field() {
    sed -n 's/^ *"'"$2"'": "\([^"]*\)".*/\1/p' "$1" | head -n 1
}

# prom_value SERIES -> value of one exposition sample from the last
# /metrics scrape in $tmp/metrics.prom ("" if the series is absent).
prom_value() {
    awk -v series="$1" '$1 == series { print $2; exit }' "$tmp/metrics.prom"
}

scrape() {
    curl -fsS "http://$addr/metrics" > "$tmp/metrics.prom" || fail "metrics scrape"
}

# submit FILE OUT -> POST a spec file, record the response.
submit() {
    curl -fsS -X POST --data-binary @"$1" "http://$addr/v1/jobs" > "$2" \
        || fail "submission of $1 rejected"
}

# discover LOG PID -> parse the serve/dispatch discovery lines from a
# freshly started midas-serve, setting addr and dispatch_addr.
discover() {
    addr=""
    dispatch_addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's#^midas-serve listening on http://##p' "$1" | head -n 1)
        dispatch_addr=$(sed -n 's#^midas-serve dispatch listening on http://##p' "$1" | head -n 1)
        [ -n "$addr" ] && [ -n "$dispatch_addr" ] && return 0
        kill -0 "$2" 2>/dev/null || fail "server exited during startup ($1)"
        sleep 0.1
        i=$((i + 1))
    done
    fail "server never printed its listen addresses ($1)"
}

# wait_done JOB TIMEOUT_TICKS -> poll a job to done (0.1s ticks).
wait_done() {
    jid=$1
    i=0
    while :; do
        curl -fsS "http://$addr/v1/jobs/$jid" > "$tmp/poll.json" || fail "poll $jid"
        state=$(json_field "$tmp/poll.json" state)
        [ "$state" = "done" ] && return 0
        case "$state" in failed|cancelled) fail "job $jid ended $state: $(cat "$tmp/poll.json")" ;; esac
        [ $i -lt "$2" ] || fail "job $jid still $state after $2 ticks"
        sleep 0.1
        i=$((i + 1))
    done
}

echo "cluster-e2e: building binaries"
go build -o "$tmp/midas-serve" ./cmd/midas-serve
go build -o "$tmp/midas-worker" ./cmd/midas-worker
go build -o "$tmp/midas-sim" ./cmd/midas-sim

# The swept + replicated spec the cluster executes: $shards shards.
cat > "$tmp/spec.json" <<EOF
{
  "scenario": "fig12-spatial-reuse",
  "topologies": $topos,
  "seed": 70000,
  "replicates": $reps,
  "sweep": {"seed": $sweep}
}
EOF
# A small sibling for the fallback phase (distinct seed: distinct hash).
cat > "$tmp/fallback-spec.json" <<EOF
{
  "scenario": "fig12-spatial-reuse",
  "topologies": 8,
  "seed": 71000,
  "replicates": 2,
  "sweep": {"seed": [71001, 71002]}
}
EOF

"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 \
    -lease-ttl "$lease_ttl" -log off > "$tmp/serve.log" 2>&1 &
serve_pid=$!
discover "$tmp/serve.log" "$serve_pid"
echo "cluster-e2e: coordinator at $addr (dispatch $dispatch_addr)"

# ---------------------------------------------------------------------
echo "cluster-e2e: phase 1: no workers -> in-process fallback"
submit "$tmp/fallback-spec.json" "$tmp/fb-submit.json"
wait_done "$(json_field "$tmp/fb-submit.json" id)" 600
scrape
leased=$(prom_value 'midas_shards_leased_total')
[ "${leased:-0}" = "0" ] || fail "fallback run leased $leased shards, want 0"
curl -fsS "http://$addr/v1/jobs/$(json_field "$tmp/fb-submit.json" id)/result" > "$tmp/fb-served.json" \
    || fail "fallback result fetch"
"$tmp/midas-sim" -spec "$tmp/fallback-spec.json" -format json -out "$tmp/fb-direct.json" \
    || fail "midas-sim on the fallback spec"
grep -v '"tool":' "$tmp/fb-served.json" > "$tmp/fb-served.stripped"
grep -v '"tool":' "$tmp/fb-direct.json" > "$tmp/fb-direct.stripped"
diff -u "$tmp/fb-direct.stripped" "$tmp/fb-served.stripped" > /dev/null \
    || fail "fallback result differs from midas-sim"
echo "cluster-e2e: fallback served byte-identical with zero leases"

# ---------------------------------------------------------------------
echo "cluster-e2e: phase 2: kill -9 a worker mid-sweep"

# The single-process golden the distributed run must byte-match.
"$tmp/midas-sim" -spec "$tmp/spec.json" -format json -out "$tmp/golden.json" \
    || fail "midas-sim golden run"

# Worker A: the victim. GOMAXPROCS=1 and one shard per lease request,
# so it is mid-shard for seconds at a time.
GOMAXPROCS=1 "$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id victim \
    -max-batch 1 > "$tmp/worker-a.log" 2>&1 &
worker_a_pid=$!

# The coordinator must see the worker before the job is submitted, or
# the job falls back in-process and nothing is distributed.
i=0
while :; do
    scrape
    live=$(prom_value 'midas_workers_live')
    [ "${live:-0}" = "1" ] && break
    [ $i -lt 100 ] || fail "worker never registered (midas_workers_live=$live)"
    sleep 0.1
    i=$((i + 1))
done
echo "cluster-e2e: victim worker registered"

submit "$tmp/spec.json" "$tmp/submit.json"
job=$(json_field "$tmp/submit.json" id)
echo "cluster-e2e: submitted $job ($shards shards)"

# Kill the victim the moment it holds a lease — mid-shard, given the
# shard's multi-second wall time against this 50ms scrape loop.
i=0
while :; do
    scrape
    leased=$(prom_value 'midas_shards_leased_total')
    [ -n "$leased" ] && [ "$leased" != "0" ] && break
    [ $i -lt 400 ] || fail "victim never leased a shard"
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$worker_a_pid"
wait "$worker_a_pid" 2>/dev/null || true
worker_a_pid=""
echo "cluster-e2e: victim killed with SIGKILL holding a lease"

# The replacement fleet finishes the sweep — including the dead
# worker's shard once its lease expires.
"$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id survivor > "$tmp/worker-b.log" 2>&1 &
worker_b_pid=$!

wait_done "$job" 1800
echo "cluster-e2e: job $job done on the surviving worker"

scrape
requeued=$(prom_value 'midas_shard_requeues_total{reason="expired"}')
accepted=$(prom_value 'midas_shards_completed_total{status="accepted"}')
[ -n "$requeued" ] && [ "$requeued" -ge 1 ] 2>/dev/null \
    || fail "no expired-lease requeue recorded (got '$requeued')"
[ "$accepted" = "$shards" ] \
    || fail "accepted completions = '$accepted', want exactly $shards (duplicate or lost engine-run side effects)"
echo "cluster-e2e: $requeued shard(s) requeued, accepted completions = $accepted = shard count"

# The distributed, crash-interrupted result must byte-match the
# single-process golden (modulo the meta tool line).
curl -fsS "http://$addr/v1/jobs/$job/result" > "$tmp/served.json" || fail "result fetch"
grep -v '"tool":' "$tmp/served.json" > "$tmp/served.stripped"
grep -v '"tool":' "$tmp/golden.json" > "$tmp/golden.stripped"
diff -u "$tmp/golden.stripped" "$tmp/served.stripped" \
    || fail "distributed result differs from the single-process golden"
echo "cluster-e2e: merged result byte-identical to single-process run"

# Orderly teardown: worker first, then the coordinator; both clean.
kill -TERM "$worker_b_pid"
wait "$worker_b_pid" || fail "surviving worker exited non-zero on SIGTERM"
worker_b_pid=""
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "coordinator exited non-zero on SIGTERM"
serve_pid=""

# ---------------------------------------------------------------------
echo "cluster-e2e: phase 3: kill -9 the coordinator mid-sweep, resume from journal"

store_dir="$tmp/store"
cat > "$tmp/journal-spec.json" <<EOF
{
  "scenario": "fig12-spatial-reuse",
  "topologies": $topos,
  "seed": 80000,
  "replicates": $reps,
  "sweep": {"seed": $sweep3}
}
EOF
# A second sweep sharing the seed-80002 point with journal-spec: its
# $reps shared shards must come from the store, not from execution.
cat > "$tmp/overlap-spec.json" <<EOF
{
  "scenario": "fig12-spatial-reuse",
  "topologies": $topos,
  "seed": 80000,
  "replicates": $reps,
  "sweep": {"seed": [80002, 80009]}
}
EOF
"$tmp/midas-sim" -spec "$tmp/journal-spec.json" -format json -out "$tmp/journal-golden.json" \
    || fail "midas-sim golden for the journal spec"

"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 \
    -store-dir "$store_dir" -lease-ttl "$lease_ttl" -log off > "$tmp/serve-journal.log" 2>&1 &
serve_pid=$!
discover "$tmp/serve-journal.log" "$serve_pid"
echo "cluster-e2e: journaling coordinator at $addr (dispatch $dispatch_addr)"

# The victim worker pattern again — GOMAXPROCS=1, one shard at a time —
# so the coordinator dies while most of the sweep is unfinished.
GOMAXPROCS=1 "$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id victim2 \
    -max-batch 1 > "$tmp/worker-c.log" 2>&1 &
worker_a_pid=$!
i=0
while :; do
    scrape
    live=$(prom_value 'midas_workers_live')
    [ "${live:-0}" = "1" ] && break
    [ $i -lt 100 ] || fail "victim2 never registered (midas_workers_live=$live)"
    sleep 0.1
    i=$((i + 1))
done

submit "$tmp/journal-spec.json" "$tmp/journal-submit.json"
echo "cluster-e2e: submitted $(json_field "$tmp/journal-submit.json" id) ($shards shards, journaled)"

# Kill -9 the whole server process the moment at least one shard result
# is durably published (accepted completions publish to the store
# before the completion response).
i=0
while :; do
    scrape
    pre_accepted=$(prom_value 'midas_shards_completed_total{status="accepted"}')
    [ -n "$pre_accepted" ] && [ "$pre_accepted" -ge 1 ] 2>/dev/null && break
    [ $i -lt 1200 ] || fail "no shard completed before the coordinator kill"
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$serve_pid" "$worker_a_pid"
wait "$serve_pid" 2>/dev/null || true
wait "$worker_a_pid" 2>/dev/null || true
serve_pid="" worker_a_pid=""
find "$store_dir/journal" -name '*.json' 2>/dev/null | sort > "$tmp/journal-precrash.txt"
[ -s "$tmp/journal-precrash.txt" ] || fail "no journal entry survived the coordinator kill"
echo "cluster-e2e: coordinator killed with SIGKILL after $pre_accepted accepted shard(s)"

# Restart over the same store dir: the journal must replay the job.
"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 \
    -store-dir "$store_dir" -lease-ttl "$lease_ttl" -log off > "$tmp/serve-restart.log" 2>&1 &
serve_pid=$!
discover "$tmp/serve-restart.log" "$serve_pid"
recovered_jobs=$(sed -n 's/^midas-serve journal: \([0-9]*\) interrupted job(s) recovered from.*/\1/p' "$tmp/serve-restart.log" | head -n 1)
[ "$recovered_jobs" = "1" ] || fail "restart recovered '$recovered_jobs' journaled job(s), want 1"

i=0
while :; do
    scrape
    resumed=$(prom_value 'midas_jobs_resumed_total')
    [ "${resumed:-0}" = "1" ] && break
    [ $i -lt 100 ] || fail "journaled job never re-dispatched (midas_jobs_resumed_total=$resumed)"
    sleep 0.1
    i=$((i + 1))
done
recovered=$(prom_value 'midas_shards_recovered_total')
[ -n "$recovered" ] && [ "$recovered" -ge "$pre_accepted" ] 2>/dev/null \
    || fail "recovered '$recovered' shard(s) from the store, want >= $pre_accepted"
echo "cluster-e2e: restart resumed the job, $recovered shard(s) answered from the store"

# Resubmitting the same spec coalesces onto the resumed in-flight job —
# which is how the script gets a pollable job id in the new process.
submit "$tmp/journal-spec.json" "$tmp/journal-resubmit.json"
job3=$(json_field "$tmp/journal-resubmit.json" id)

# A fresh worker supplies only the missing shards.
"$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id survivor2 > "$tmp/worker-d.log" 2>&1 &
worker_b_pid=$!
wait_done "$job3" 1800

scrape
accepted=$(prom_value 'midas_shards_completed_total{status="accepted"}')
[ "$accepted" = "$((shards - recovered))" ] \
    || fail "post-restart accepted completions = '$accepted', want $((shards - recovered)) (journaled-complete shards were re-executed)"
echo "cluster-e2e: zero re-execution: $accepted executed + $recovered recovered = $shards shards"

curl -fsS "http://$addr/v1/jobs/$job3/result" > "$tmp/journal-served.json" || fail "resumed result fetch"
grep -v '"tool":' "$tmp/journal-served.json" > "$tmp/journal-served.stripped"
grep -v '"tool":' "$tmp/journal-golden.json" > "$tmp/journal-golden.stripped"
diff -u "$tmp/journal-golden.stripped" "$tmp/journal-served.stripped" \
    || fail "resumed result differs from the single-process golden"
echo "cluster-e2e: resumed result byte-identical to single-process run"

# Sweep-point reuse across jobs: the overlap sweep's shared shards are
# store hits, only its new point executes.
"$tmp/midas-sim" -spec "$tmp/overlap-spec.json" -format json -out "$tmp/overlap-golden.json" \
    || fail "midas-sim golden for the overlap spec"
submit "$tmp/overlap-spec.json" "$tmp/overlap-submit.json"
job4=$(json_field "$tmp/overlap-submit.json" id)
wait_done "$job4" 1800
scrape
recovered2=$(prom_value 'midas_shards_recovered_total')
[ "$recovered2" = "$((recovered + reps))" ] \
    || fail "overlap sweep brought recovered to '$recovered2', want $((recovered + reps)) (store hits for the shared point)"
curl -fsS "http://$addr/v1/jobs/$job4/result" > "$tmp/overlap-served.json" || fail "overlap result fetch"
grep -v '"tool":' "$tmp/overlap-served.json" > "$tmp/overlap-served.stripped"
grep -v '"tool":' "$tmp/overlap-golden.json" > "$tmp/overlap-golden.stripped"
diff -u "$tmp/overlap-golden.stripped" "$tmp/overlap-served.stripped" \
    || fail "overlap result differs from the single-process golden"
echo "cluster-e2e: shared sweep point served from the store ($reps shard(s) skipped)"

# Orderly teardown; with every job terminal the journal must be empty.
kill -TERM "$worker_b_pid"
wait "$worker_b_pid" || fail "survivor2 exited non-zero on SIGTERM"
worker_b_pid=""
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "journaling coordinator exited non-zero on SIGTERM"
serve_pid=""
leftover=$(find "$store_dir/journal" -name '*.json' 2>/dev/null | wc -l | tr -d ' ')
[ "$leftover" = "0" ] || fail "journal still holds $leftover entrie(s) after all jobs finished"
find "$store_dir" -type f | sort > "$tmp/store-listing.txt"
echo "cluster-e2e: journal empty after completion; store holds $(wc -l < "$tmp/store-listing.txt" | tr -d ' ') file(s)"

# ---------------------------------------------------------------------
echo "cluster-e2e: phase 4: shared store, worker direct publish, sibling coordinator"

shared_dir="$tmp/shared-store"
cat > "$tmp/shared-spec.json" <<EOF
{
  "scenario": "fig12-spatial-reuse",
  "topologies": $topos,
  "seed": 90000,
  "replicates": $reps,
  "sweep": {"seed": $sweep4}
}
EOF
"$tmp/midas-sim" -spec "$tmp/shared-spec.json" -format json -out "$tmp/shared-golden.json" \
    || fail "midas-sim golden for the shared-store spec"

"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 \
    -store-dir "$shared_dir" -lease-ttl "$lease_ttl" -log off \
    > "$tmp/serve-a4.log" 2>&1 &
serve_pid=$!
discover "$tmp/serve-a4.log" "$serve_pid"
addr_a=$addr
echo "cluster-e2e: coordinator A at $addr_a (dispatch $dispatch_addr, shared store)"

# The direct-publishing victim: every shard result goes straight into
# the shared store; the hold env parks it between the store write and
# the completion POST — the acknowledgement window we kill it in.
GOMAXPROCS=1 MIDAS_WORKER_HOLD_AFTER_PUBLISH=300s "$tmp/midas-worker" \
    -coordinator "http://$dispatch_addr" -id holder \
    -store-dir "$shared_dir" \
    -max-batch 1 > "$tmp/worker-e.log" 2>&1 &
worker_a_pid=$!
i=0
while :; do
    scrape
    live=$(prom_value 'midas_workers_live')
    [ "${live:-0}" = "1" ] && break
    [ $i -lt 100 ] || fail "direct worker never registered (midas_workers_live=$live)"
    sleep 0.1
    i=$((i + 1))
done

submit "$tmp/shared-spec.json" "$tmp/shared-submit.json"
job5=$(json_field "$tmp/shared-submit.json" id)
echo "cluster-e2e: submitted $job5 ($shards shards, direct publish)"

# Kill -9 the worker the moment it announces the acknowledgement
# window: its result is in the store, its completion POST never sent.
i=0
while :; do
    grep -q "holding after publish" "$tmp/worker-e.log" && break
    kill -0 "$worker_a_pid" 2>/dev/null || fail "direct worker exited before reaching the acknowledgement window"
    [ $i -lt 1200 ] || fail "direct worker never reached the acknowledgement window"
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$worker_a_pid"
wait "$worker_a_pid" 2>/dev/null || true
worker_a_pid=""
echo "cluster-e2e: direct worker killed with SIGKILL inside the acknowledgement window"

# The published-but-unacknowledged shard must be recovered from the
# store at lease expiry — before any replacement worker exists, so
# recovery (not re-execution) is the only way it can complete.
i=0
while :; do
    scrape
    recovered4=$(prom_value 'midas_shards_recovered_total')
    [ -n "$recovered4" ] && [ "$recovered4" -ge 1 ] 2>/dev/null && break
    [ $i -lt 600 ] || fail "published shard never recovered from the store (midas_shards_recovered_total=$recovered4)"
    sleep 0.1
    i=$((i + 1))
done
[ "$recovered4" = "1" ] || fail "recovered $recovered4 shard(s), want exactly 1"
echo "cluster-e2e: orphaned publish recovered from the store at lease expiry"

# A replacement direct-publishing worker supplies the remaining shards.
"$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id finisher \
    -store-dir "$shared_dir" > "$tmp/worker-f.log" 2>&1 &
worker_b_pid=$!
wait_done "$job5" 1800

scrape
accepted=$(prom_value 'midas_shards_completed_total{status="accepted"}')
verified=$(prom_value 'midas_shards_direct_total{outcome="verified"}')
resent=$(prom_value 'midas_shards_direct_total{outcome="resend"}')
[ "$accepted" = "$((shards - 1))" ] \
    || fail "accepted completions = '$accepted', want $((shards - 1)) (the held shard must come from recovery, not re-execution)"
[ "$verified" = "$accepted" ] \
    || fail "direct-verified completions = '$verified', want $accepted (every accepted shard must have been store-verified, never inline)"
[ "${resent:-0}" = "0" ] || fail "coordinator asked for $resent inline resend(s) on a shared store"
echo "cluster-e2e: $verified shard(s) direct-published and verified + 1 recovered = $shards, zero inline payloads"

curl -fsS "http://$addr_a/v1/jobs/$job5/result" > "$tmp/shared-served-a.json" || fail "shared result fetch from A"
grep -v '"tool":' "$tmp/shared-served-a.json" > "$tmp/shared-served-a.stripped"
grep -v '"tool":' "$tmp/shared-golden.json" > "$tmp/shared-golden.stripped"
diff -u "$tmp/shared-golden.stripped" "$tmp/shared-served-a.stripped" \
    || fail "direct-published result differs from the single-process golden"

# Coordinator B: a second process over the same shared directory. It
# must serve A's sweep as a store hit — no engine runs, byte-identical
# bytes — both by job submission and by content address.
"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 \
    -store-dir "$shared_dir" -lease-ttl "$lease_ttl" -log off \
    > "$tmp/serve-b4.log" 2>&1 &
serve_b_pid=$!
discover "$tmp/serve-b4.log" "$serve_b_pid"
addr_b=$addr
warm_entries=$(sed -n 's/^midas-serve store: \([0-9]*\) entries.*/\1/p' "$tmp/serve-b4.log" | head -n 1)
[ -n "$warm_entries" ] && [ "$warm_entries" -ge "$shards" ] 2>/dev/null \
    || fail "coordinator B warmed only '$warm_entries' entrie(s) from the shared store, want >= $shards"
echo "cluster-e2e: coordinator B at $addr_b warmed $warm_entries entries from A's store"

curl -fsS -X POST --data-binary @"$tmp/shared-spec.json" "http://$addr_b/v1/jobs" > "$tmp/shared-submit-b.json" \
    || fail "submission to coordinator B rejected"
grep -q '"cached": true' "$tmp/shared-submit-b.json" \
    || fail "B did not serve A's spec from cache: $(cat "$tmp/shared-submit-b.json")"
tier=$(json_field "$tmp/shared-submit-b.json" cache_tier)
[ "$tier" = "store" ] || fail "B's cache tier = '$tier', want store"
job6=$(json_field "$tmp/shared-submit-b.json" id)
spec_hash=$(json_field "$tmp/shared-submit-b.json" spec_hash)

curl -fsS "http://$addr_b/v1/jobs/$job6/result" > "$tmp/shared-served-b.json" || fail "shared result fetch from B"
diff -u "$tmp/shared-served-a.json" "$tmp/shared-served-b.json" \
    || fail "B's body differs from A's for the same spec (cross-coordinator byte identity broken)"
curl -fsS "http://$addr_b/v1/results/$spec_hash" > "$tmp/shared-byhash-b.json" \
    || fail "content-addressed fetch from B"
diff -u "$tmp/shared-served-b.json" "$tmp/shared-byhash-b.json" \
    || fail "GET /v1/results/{hash} differs from the job-result body"
echo "cluster-e2e: B served A's sweep as a store hit, byte-identical, job and hash endpoints agree"

# Orderly teardown of the whole shared-store cluster.
kill -TERM "$worker_b_pid"
wait "$worker_b_pid" || fail "finisher worker exited non-zero on SIGTERM"
worker_b_pid=""
kill -TERM "$serve_b_pid"
wait "$serve_b_pid" || fail "coordinator B exited non-zero on SIGTERM"
serve_b_pid=""
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "coordinator A exited non-zero on SIGTERM"
serve_pid=""
find "$shared_dir" -type f | sort > "$tmp/shared-store-listing.txt"
echo "cluster-e2e: shared store holds $(wc -l < "$tmp/shared-store-listing.txt" | tr -d ' ') file(s) after teardown"

# ---------------------------------------------------------------------
echo "cluster-e2e: phase 5: SIGTERM a coordinator with a parked idle worker"

"$tmp/midas-serve" -addr 127.0.0.1:0 -dispatch-listen 127.0.0.1:0 -log off \
    > "$tmp/serve-5.log" 2>&1 &
serve_pid=$!
discover "$tmp/serve-5.log" "$serve_pid"
"$tmp/midas-worker" -coordinator "http://$dispatch_addr" -id idler > "$tmp/worker-g.log" 2>&1 &
worker_b_pid=$!
i=0
while :; do
    scrape
    live=$(prom_value 'midas_workers_live')
    [ "${live:-0}" = "1" ] && break
    [ $i -lt 100 ] || fail "idle worker never registered (midas_workers_live=$live)"
    sleep 0.1
    i=$((i + 1))
done
# With no job queued, the worker's lease request is now parked.
sleep 0.2
start_ns=$(date +%s%N)
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "coordinator with an idle worker exited non-zero on SIGTERM"
serve_pid=""
stop_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
grep -q '^midas-serve stopped$' "$tmp/serve-5.log" || fail "coordinator never printed 'midas-serve stopped'"
[ "$stop_ms" -le 1000 ] \
    || fail "SIGTERM -> stopped took ${stop_ms}ms with a parked idle worker, want <= 1000ms"
echo "cluster-e2e: coordinator stopped ${stop_ms}ms after SIGTERM with a parked idle worker"
kill -TERM "$worker_b_pid"
wait "$worker_b_pid" || fail "idle worker exited non-zero on SIGTERM"
worker_b_pid=""

if [ -n "${CLUSTER_E2E_OUT:-}" ]; then
    mkdir -p "$CLUSTER_E2E_OUT"
    cp "$tmp/metrics.prom" "$tmp/served.json" "$tmp/golden.json" \
        "$tmp/journal-served.json" "$tmp/journal-golden.json" \
        "$tmp/journal-precrash.txt" "$tmp/store-listing.txt" \
        "$tmp/shared-served-a.json" "$tmp/shared-served-b.json" \
        "$tmp/shared-byhash-b.json" "$tmp/shared-golden.json" \
        "$tmp/shared-store-listing.txt" \
        "$tmp/serve.log" "$tmp/serve-journal.log" "$tmp/serve-restart.log" \
        "$tmp/serve-a4.log" "$tmp/serve-b4.log" "$tmp/serve-5.log" \
        "$tmp/worker-a.log" "$tmp/worker-b.log" "$tmp/worker-c.log" "$tmp/worker-d.log" \
        "$tmp/worker-e.log" "$tmp/worker-f.log" "$tmp/worker-g.log" \
        "$CLUSTER_E2E_OUT/" 2>/dev/null || true
    echo "cluster-e2e: artifacts written to $CLUSTER_E2E_OUT"
fi

echo "cluster-e2e: PASS"
