#!/bin/sh
# serve-smoke: end-to-end check that midas-serve serves the same result
# for a spec as midas-sim computes for it directly.
#
# Starts midas-serve on an ephemeral port, submits a reduced-scale
# fig12 spec over HTTP, polls the job to completion, fetches the
# result, and diffs it against `midas-sim -spec` output for the same
# spec file. The two snapshots must match except for the meta "tool"
# name (midas-serve vs midas-sim), which is stripped before the diff.
# A second submission must be answered from the spec-hash cache with a
# byte-identical body, and the Prometheus exposition at /metrics must
# parse and show the cache hit plus the latency histograms. Finally
# the server is shut down with SIGTERM and must drain cleanly (exit 0).
#
# Requires: curl. Run from the repository root (make serve-smoke).
set -eu

tmp=$(mktemp -d)
serve_pid=""
cleanup() {
    status=$?
    if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
    exit $status
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    [ -f "$tmp/serve.log" ] && sed 's/^/serve-smoke: server: /' "$tmp/serve.log" >&2
    exit 1
}

# The reduced-scale fig12 spec both paths run.
cat > "$tmp/spec.json" <<'EOF'
{
  "scenario": "fig12-spatial-reuse",
  "topologies": 4,
  "seed": 7
}
EOF

echo "serve-smoke: building binaries"
go build -o "$tmp/midas-serve" ./cmd/midas-serve
go build -o "$tmp/midas-sim" ./cmd/midas-sim

"$tmp/midas-serve" -addr 127.0.0.1:0 > "$tmp/serve.log" 2>&1 &
serve_pid=$!

# Discover the ephemeral address from the stable startup line.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's#^midas-serve listening on http://##p' "$tmp/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || fail "server never printed its listen address"
echo "serve-smoke: server at $addr"

curl -fsS "http://$addr/healthz" > /dev/null || fail "healthz"

# json_field FILE KEY -> first string value of KEY (our status payloads
# are flat and indented, so a line-based extraction is reliable and
# avoids a jq dependency).
json_field() {
    sed -n 's/^ *"'"$2"'": "\([^"]*\)".*/\1/p' "$1" | head -n 1
}

curl -fsS -X POST --data-binary @"$tmp/spec.json" "http://$addr/v1/jobs" > "$tmp/submit1.json" \
    || fail "job submission rejected"
job=$(json_field "$tmp/submit1.json" id)
[ -n "$job" ] || fail "no job id in $(cat "$tmp/submit1.json")"
echo "serve-smoke: submitted $job"

state=$(json_field "$tmp/submit1.json" state)
i=0
while [ "$state" != "done" ]; do
    case "$state" in failed|cancelled) fail "job $job ended $state" ;; esac
    [ $i -lt 600 ] || fail "job $job still $state after 60s"
    sleep 0.1
    i=$((i + 1))
    curl -fsS "http://$addr/v1/jobs/$job" > "$tmp/status.json" || fail "status poll"
    state=$(json_field "$tmp/status.json" state)
done
echo "serve-smoke: job $job done"

curl -fsS "http://$addr/v1/jobs/$job/result" > "$tmp/served.json" || fail "result fetch"

# The same spec through the CLI path.
"$tmp/midas-sim" -spec "$tmp/spec.json" -format json -out "$tmp/direct.json" \
    || fail "midas-sim -spec failed"

# The snapshots differ only in meta.tool; strip that one line and
# require everything else byte-identical.
grep -v '"tool":' "$tmp/served.json" > "$tmp/served.stripped"
grep -v '"tool":' "$tmp/direct.json" > "$tmp/direct.stripped"
diff -u "$tmp/direct.stripped" "$tmp/served.stripped" \
    || fail "HTTP-served result differs from midas-sim -spec output"
echo "serve-smoke: served result matches midas-sim -spec"

# Resubmitting the identical spec must be a cache hit with a
# byte-identical result body.
curl -fsS -X POST --data-binary @"$tmp/spec.json" "http://$addr/v1/jobs" > "$tmp/submit2.json" \
    || fail "resubmission rejected"
grep -q '"cached": true' "$tmp/submit2.json" || fail "resubmission was not served from the cache: $(cat "$tmp/submit2.json")"
job2=$(json_field "$tmp/submit2.json" id)
curl -fsS "http://$addr/v1/jobs/$job2/result" > "$tmp/served2.json" || fail "cached result fetch"
cmp -s "$tmp/served.json" "$tmp/served2.json" || fail "cached result is not byte-identical"
echo "serve-smoke: cache hit byte-identical"

# The Prometheus exposition: every line must be a comment or a
# `name{labels} value` sample (i.e. the format parses), and the session
# must be visible in it — the cache-hit counter incremented by the
# resubmission, and the queue-wait / run-duration histograms populated
# by the cold run.
curl -fsS "http://$addr/metrics" > "$tmp/metrics.prom" || fail "exposition fetch"
bad=$(grep -Ev '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*|# .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+([eE][-+][0-9]+)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [+-]Inf|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? NaN)$' "$tmp/metrics.prom" || true)
[ -z "$bad" ] || fail "exposition has unparseable lines: $bad"
grep -q '^midas_cache_hits_total 1$' "$tmp/metrics.prom" \
    || fail "exposition does not show the cache hit: $(grep cache_hits "$tmp/metrics.prom" || true)"
grep -q '^# TYPE midas_job_queue_wait_seconds histogram$' "$tmp/metrics.prom" || fail "queue-wait histogram missing"
grep -q '^midas_job_queue_wait_seconds_count 1$' "$tmp/metrics.prom" || fail "queue-wait histogram not populated"
grep -q '^# TYPE midas_job_run_seconds histogram$' "$tmp/metrics.prom" || fail "run-duration histogram missing"
grep -q '^midas_job_run_seconds_count{scenario="fig12-spatial-reuse"} 1$' "$tmp/metrics.prom" \
    || fail "run-duration histogram not populated"
echo "serve-smoke: exposition parses and shows the session"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "server exited non-zero on SIGTERM"
serve_pid=""
grep -q "midas-serve stopped" "$tmp/serve.log" || fail "server did not report a clean drain"
echo "serve-smoke: PASS"
