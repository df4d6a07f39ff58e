#!/bin/sh
# drain-e2e: disruption end-to-end for midas-serve's durability story.
#
# Phase 1 — SIGTERM drain under load: start midas-serve (one worker,
# so accepted jobs serialize and the drain window is observable) with a
# durable store, drive it with midas-loadgen, submit probe jobs plus
# trailing anchor jobs, then SIGTERM mid-load. /healthz must flip to
# 503 "draining", every accepted probe must drain to done with its
# result collectable over HTTP while the anchors keep the drain open,
# and the server must exit 0.
#
# Phase 2 — kill -9 and restart: fresh server + store dir, complete a
# set of survivor specs, save their bodies and ETags, then SIGKILL the
# server while loadgen is hammering it. Restart on the same store dir
# and require: the warm scan found the survivors; resubmitting each
# spec is a "store"-tier cache hit; the served body is byte-identical
# to the pre-kill one; no engine run happened (the exposition has no
# midas_job_run_seconds sample and no queued submission); If-None-Match
# with the saved ETag returns a body-less 304; and the exposition shows
# the store hits.
#
# Environment knobs:
#   DRAIN_E2E_FULL  non-empty = full scale (nightly); default is the
#                   short CI mode (make drain-e2e)
#   DRAIN_E2E_OUT   directory to copy reports/artifacts into (optional)
#
# Requires: curl. Run from the repository root.
set -eu

if [ -n "${DRAIN_E2E_FULL:-}" ]; then
    load_duration=15s probes=8 survivors=8 concurrency=8
else
    load_duration=4s probes=3 survivors=3 concurrency=4
fi

tmp=$(mktemp -d)
serve_pid=""
loadgen_pid=""
cleanup() {
    status=$?
    for pid in "$serve_pid" "$loadgen_pid"; do
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
    echo "drain-e2e: FAIL: $*" >&2
    [ -f "$tmp/serve.log" ] && tail -n 20 "$tmp/serve.log" | sed 's/^/drain-e2e: server: /' >&2
    exit 1
}

# json_field FILE KEY -> first string value of KEY.
json_field() {
    sed -n 's/^ *"'"$2"'": "\([^"]*\)".*/\1/p' "$1" | head -n 1
}

# start_server LOG STORE_DIR [extra flags...] -> sets serve_pid, addr
start_server() {
    log=$1; sdir=$2; shift 2
    "$tmp/midas-serve" -addr 127.0.0.1:0 -store-dir "$sdir" -log off "$@" > "$log" 2>&1 &
    serve_pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's#^midas-serve listening on http://##p' "$log" | head -n 1)
        [ -n "$addr" ] && break
        kill -0 "$serve_pid" 2>/dev/null || fail "server exited during startup ($log)"
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$addr" ] || fail "server never printed its listen address"
}

# submit_spec SEED TOPOS OUT -> submits a fig12 spec, writes response
submit_spec() {
    printf '{"scenario": "fig12-spatial-reuse", "topologies": %d, "seed": %d}' "$2" "$1" \
        | curl -fsS -X POST --data-binary @- "http://$addr/v1/jobs" > "$3"
}

# wait_done JOB -> polls until done (fails on failed/cancelled/timeout)
wait_done() {
    jid=$1
    i=0
    while :; do
        curl -fsS "http://$addr/v1/jobs/$jid" > "$tmp/poll.json" || fail "poll $jid"
        state=$(json_field "$tmp/poll.json" state)
        [ "$state" = "done" ] && return 0
        case "$state" in failed|cancelled) fail "job $jid ended $state" ;; esac
        [ $i -lt 600 ] || fail "job $jid still $state after 60s"
        sleep 0.1
        i=$((i + 1))
    done
}

echo "drain-e2e: building binaries"
go build -o "$tmp/midas-serve" ./cmd/midas-serve
go build -o "$tmp/midas-loadgen" ./cmd/midas-loadgen

# ---------------------------------------------------------------------
echo "drain-e2e: phase 1: SIGTERM drain under load"
start_server "$tmp/serve.log" "$tmp/store-drain" -drain 60s -workers 1
echo "drain-e2e: server at $addr"

# Background load: uncached specs keep the pool busy through the drain
# window. No SLO gates — drain-window 503s are expected and the retry
# budget absorbs them; the report is informational.
"$tmp/midas-loadgen" -url "http://$addr" -duration "$load_duration" \
    -concurrency "$concurrency" -mix uncached=1 -topos 2 -seed 50000 \
    -retries 3 -out "$tmp/loadgen-drain.json" > /dev/null 2>&1 &
loadgen_pid=$!
sleep 1

# Probe jobs: accepted before the SIGTERM, so the drain guarantee
# covers them — every one must finish and stay collectable. The anchor
# jobs queue behind the probes on the single worker and keep the drain
# (and the listener) open while the probe results are collected; they
# are deliberately never polled. Each anchor is 16× a probe's size so
# its engine time (about 0.2 s on a 2-vCPU host) outlasts collecting
# the probes by a wide margin.
n=0
probe_ids=""
while [ $n -lt "$probes" ]; do
    submit_spec $((7000 + n)) 256 "$tmp/probe$n.json" || fail "probe $n rejected"
    probe_ids="$probe_ids $(json_field "$tmp/probe$n.json" id)"
    n=$((n + 1))
done
n=0
while [ $n -lt "$probes" ]; do
    submit_spec $((8000 + n)) 4096 "$tmp/anchor$n.json" || fail "anchor $n rejected"
    n=$((n + 1))
done
echo "drain-e2e: $probes probes accepted:$probe_ids (+$probes anchors)"

kill -TERM "$serve_pid"

# While draining: healthz must flip to 503 "draining". Poll, because
# the signal takes a moment to land; a connection failure means the
# drain finished before it was ever observable — also a failure.
i=0
while :; do
    code=$(curl -s -o "$tmp/health.json" -w '%{http_code}' "http://$addr/healthz" || true)
    if [ "$code" = "503" ] && grep -q '"draining"' "$tmp/health.json"; then
        break
    fi
    case "$code" in
    000) fail "server stopped before /healthz ever reported draining" ;;
    esac
    [ $i -lt 100 ] || fail "healthz still $code ($(cat "$tmp/health.json")) after SIGTERM, want 503 draining"
    i=$((i + 1))
done
echo "drain-e2e: healthz reports draining (503)"

# Every accepted probe must drain to done and serve its result while
# the anchors hold the listener open.
for jid in $probe_ids; do
    wait_done "$jid"
    curl -fsS "http://$addr/v1/jobs/$jid/result" > "$tmp/drained-$jid.json" \
        || fail "result of drained job $jid not collectable"
    grep -q '"results"' "$tmp/drained-$jid.json" || fail "drained result $jid is empty"
done
echo "drain-e2e: all $probes accepted probes drained and collectable"

wait "$serve_pid" || fail "server exited non-zero on SIGTERM"
serve_pid=""
grep -q "midas-serve stopped" "$tmp/serve.log" || fail "server did not report a clean stop"
wait "$loadgen_pid" || true
loadgen_pid=""

# ---------------------------------------------------------------------
echo "drain-e2e: phase 2: kill -9 under load, restart, serve from disk"
start_server "$tmp/serve2.log" "$tmp/store-crash" -drain 60s

# Complete the survivor specs and save their bodies + ETags: these are
# the results the crash must not lose.
n=0
while [ $n -lt "$survivors" ]; do
    submit_spec $((9000 + n)) 4 "$tmp/surv$n.json" || fail "survivor $n rejected"
    wait_done "$(json_field "$tmp/surv$n.json" id)"
    curl -fsS -D "$tmp/surv$n.hdr" "http://$addr/v1/jobs/$(json_field "$tmp/surv$n.json" id)/result" \
        > "$tmp/surv$n.body" || fail "survivor $n result fetch"
    n=$((n + 1))
done
echo "drain-e2e: $survivors survivor results completed and saved"

# Load up the server and SIGKILL it mid-flight — no drain, no Close.
"$tmp/midas-loadgen" -url "http://$addr" -duration "$load_duration" \
    -concurrency "$concurrency" -mix uncached=1 -topos 2 -seed 60000 \
    -retries 0 -out "$tmp/loadgen-crash.json" > /dev/null 2>&1 &
loadgen_pid=$!
sleep 1
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
wait "$loadgen_pid" || true
loadgen_pid=""
echo "drain-e2e: server killed with SIGKILL"

# Restart on the same store dir: the warm scan must find at least the
# survivor entries (the kill-window loadgen may have persisted more).
start_server "$tmp/serve3.log" "$tmp/store-crash" -drain 60s
warm=$(sed -n 's/^midas-serve store: \([0-9]*\) entries.*/\1/p' "$tmp/serve3.log" | head -n 1)
[ -n "$warm" ] || fail "restarted server printed no store warm line"
[ "$warm" -ge "$survivors" ] || fail "warm scan found $warm entries, want >= $survivors"
echo "drain-e2e: restarted at $addr with $warm entries warm"

# Every pre-kill result must be served from the disk tier, byte-
# identical, without an engine run.
n=0
while [ $n -lt "$survivors" ]; do
    submit_spec $((9000 + n)) 4 "$tmp/resub$n.json" || fail "resubmission $n rejected"
    grep -q '"cached": true' "$tmp/resub$n.json" \
        || fail "resubmission $n not cached: $(cat "$tmp/resub$n.json")"
    grep -q '"cache_tier": "store"' "$tmp/resub$n.json" \
        || fail "resubmission $n not from the store tier: $(cat "$tmp/resub$n.json")"
    curl -fsS "http://$addr/v1/jobs/$(json_field "$tmp/resub$n.json" id)/result" > "$tmp/resub$n.body" \
        || fail "restart result $n fetch"
    cmp -s "$tmp/surv$n.body" "$tmp/resub$n.body" \
        || fail "restart-served result $n is not byte-identical to the pre-kill body"

    # Conditional revalidation with the pre-kill ETag: body-less 304.
    etag=$(sed -n 's/^[Ee][Tt]ag: *//p' "$tmp/surv$n.hdr" | tr -d '\r' | head -n 1)
    [ -n "$etag" ] || fail "survivor $n response had no ETag"
    code=$(curl -s -o /dev/null -w '%{http_code} %{size_download}' \
        -H "If-None-Match: $etag" \
        "http://$addr/v1/jobs/$(json_field "$tmp/resub$n.json" id)/result")
    [ "$code" = "304 0" ] || fail "If-None-Match revalidation $n returned '$code', want '304 0'"
    n=$((n + 1))
done
echo "drain-e2e: all $survivors results byte-identical from disk, 304 on revalidation"

# Proof there was no engine re-run: this process has never run the
# engine (no run-duration sample, nothing queued — and only a queued
# job runs), and the store hits are visible on the exposition.
curl -fsS "http://$addr/metrics" > "$tmp/metrics.prom" || fail "exposition fetch"
! grep -q '^midas_job_run_seconds_count' "$tmp/metrics.prom" \
    || fail "restarted server ran the engine: $(grep '^midas_job_run_seconds_count' "$tmp/metrics.prom")"
queued=$(sed -n 's/^midas_submissions_total{outcome="queued"} \(.*\)/\1/p' "$tmp/metrics.prom")
[ -z "$queued" ] || [ "$queued" = 0 ] \
    || fail "restarted server queued $queued job(s) for the engine"
hits=$(sed -n 's/^midas_store_hits_total \([0-9][0-9]*\).*/\1/p' "$tmp/metrics.prom")
[ -n "$hits" ] && [ "$hits" -ge "$survivors" ] \
    || fail "midas_store_hits_total is '$hits', want >= $survivors"
echo "drain-e2e: zero engine runs after restart, $hits store hits"

kill -TERM "$serve_pid"
wait "$serve_pid" || fail "restarted server exited non-zero on SIGTERM"
serve_pid=""

if [ -n "${DRAIN_E2E_OUT:-}" ]; then
    mkdir -p "$DRAIN_E2E_OUT"
    cp "$tmp/loadgen-drain.json" "$tmp/loadgen-crash.json" "$tmp/metrics.prom" \
        "$DRAIN_E2E_OUT/" 2>/dev/null || true
    (cd "$tmp" && find store-crash -type f | sort) > "$DRAIN_E2E_OUT/store-state.txt"
    echo "drain-e2e: artifacts written to $DRAIN_E2E_OUT"
fi

echo "drain-e2e: PASS"
