# CI entry points for the MIDAS reproduction. `make ci` is what a
# checkin must keep green: formatting, vet, build, the full test suite,
# vet and tests of the nested benchmark-harness module, a canned-input
# check of the nightly perfbench gate's comparison, a race pass over
# the concurrency-bearing packages, the golden-figure regression
# suite, the examples, a reduced-scale benchmark smoke that
# exercises the parallel experiment runner end to end, an SLO-gated
# load smoke driving a live midas-serve with midas-loadgen, and a
# disruption e2e that SIGTERMs and kill -9s midas-serve under load and
# proves the durable result store loses nothing.

GO ?= go

.PHONY: ci fmt-check vet build test test-race perfbench-check perf-gate-check fuzz-smoke golden examples bench-smoke serve-smoke loadgen-smoke loadgen drain-e2e drain-e2e-full cluster-e2e cluster-e2e-full bench alloc-guard cover fmt

# (`test` already runs the golden suite once and `test-race` replays it
# under the race detector; the explicit `golden` target is for focused
# local runs, not a third CI pass.)
#
# This exact target is what .github/workflows/ci.yml runs — the
# workflow is a thin wrapper, so the local gate and the per-commit gate
# cannot diverge.
ci: fmt-check vet build test perfbench-check perf-gate-check test-race fuzz-smoke alloc-guard cover bench-smoke serve-smoke loadgen-smoke drain-e2e cluster-e2e examples

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is a nested module (repro/perfbench) that
# imports engine, store and journal APIs; `./...` at the root does not
# reach it, so vet and test it on its own. Removing an API it uses
# fails here instead of in the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The nightly workflow gates on scripts/perf-gate.sh BASE_REV: ten
# alternating perfbench pairs per BENCHMARK.json workload, compared by
# scripts/perf-gate.jq. This feeds that comparison canned results (a
# pass, an in-bound change, a regression past its bound in each
# direction, a correct: false run, a higher failed share, a failing
# run) and requires each verdict. Needs only jq.
perf-gate-check:
	./scripts/perf-gate-check.sh

# The race detector over the packages that own concurrency: the worker
# pool, the scenario engine dispatching expanded runs through it, the
# experiment drivers, the serving layer's job pool + cache, the
# dispatch coordinator's lease/requeue state machine, the job journal
# it checkpoints through, and the random streams that goroutines split
# from one shared parent.
test-race:
	$(GO) test -race ./internal/scenario ./internal/runner ./internal/sim ./internal/service ./internal/store ./internal/telemetry ./internal/dispatch ./internal/journal ./internal/api ./internal/rng

# Short fuzzing pass beyond the seed corpora (which `test` already
# replays): every Fuzz* target in the module runs for 3s. Go fuzzes
# one target per invocation, so each gets its own `go test`.
fuzz-smoke:
	@set -e; grep -r --include='*_test.go' --exclude-dir=perfbench --exclude-dir=.bench_build \
		-o '^func Fuzz[A-Za-z0-9_]*' . | sort | while IFS=: read -r file decl; do \
		pkg=$$(dirname "$$file"); name=$${decl#func }; \
		echo "fuzz $$pkg $$name"; \
		$(GO) test -run='^$$' -fuzz="^$$name\$$" -fuzztime=3s -parallel=2 "$$pkg"; \
	done

# The golden-figure regression suite: replay every registered
# scenario's committed spec at parallelism 1 and 8 and require
# byte-identical results. After an intentional output change:
#   go test ./internal/scenario -run TestGoldenFigures -update
golden:
	$(GO) test -run 'TestGoldenFigures|TestGoldenDefaultScale' ./internal/scenario

# Run the quickstart walkthrough and midas-sim over every committed
# example spec file so none can silently rot.
examples:
	$(GO) run ./examples/quickstart -spec examples/quickstart/spec.json > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig8-office-a,fig9-office-b -spec examples/office/spec.json > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig13-deadzones,ht-hidden-terminals -spec examples/hiddenterminal/spec.json > /dev/null
	$(GO) run ./cmd/midas-sim -spec examples/dense/spec.json > /dev/null

# A fast end-to-end pass through the runner: a PHY figure, a MAC figure
# and one short DES experiment, at reduced scale, through every sink,
# plus a two-scenario list, a sweep and a replicated run through
# midas-sim, and one iteration of each root benchmark in BENCH_SMOKE.
# A benchmark named there that does not run (renamed, say) fails the
# target, so the smoke cannot silently go empty.
BENCH_SMOKE = BenchmarkFig12SpatialReuse BenchmarkFig15EndToEnd BenchmarkFig15Replicated
bench-smoke:
	$(GO) run ./cmd/midas-sim -scenario fig3 -set topologies=8 > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig12 -set topologies=8 -format json -out /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig15 -set topologies=4 -set simtime=50ms -format csv > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig3,fig12 -set topologies=4 > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig12 -set topologies=4 -set seed=3,4 > /dev/null
	$(GO) run ./cmd/midas-sim -scenario fig12 -set topologies=2 -set replicates=3 -format json > /dev/null
	@re=$$(echo $(BENCH_SMOKE) | tr ' ' '|'); \
	out=$$($(GO) test -run='^$$' -bench="^($$re)$$" -benchtime=1x .) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	for b in $(BENCH_SMOKE); do \
		echo "$$out" | grep -Eq "^$$b(-[0-9]+)?[[:space:]]" || { echo "bench-smoke: $$b did not run"; exit 1; }; \
	done

# End-to-end pass through the serving layer: start midas-serve on an
# ephemeral port, submit a reduced-scale fig12 spec over HTTP, poll to
# completion, diff the served result against `midas-sim -spec` for the
# same spec (only the meta tool name may differ), verify the spec-hash
# cache answers a resubmission byte-identically, and drain on SIGTERM.
serve-smoke:
	./scripts/serve-smoke.sh

# SLO-gated load smoke: boot midas-serve, drive it with midas-loadgen
# for a few seconds at a mostly-cached mix, and fail if the measured
# latency quantiles or error rate break the (deliberately generous —
# this is a shared CI box) SLOs. The nightly workflow runs the same
# script at full scale with tighter knobs via LOADGEN_* overrides.
loadgen-smoke:
	./scripts/loadgen-slo.sh

# Full-scale local load run: longer window, open-loop arrivals too.
loadgen:
	LOADGEN_DURATION=30s LOADGEN_SLO_P50=500ms LOADGEN_SLO_P99=5s ./scripts/loadgen-slo.sh

# Disruption e2e for the durable result store: SIGTERM midas-serve
# under load and require every accepted job to drain to a collectable
# result, then kill -9 it under load, restart on the same store dir,
# and require every completed spec to be served byte-identical from
# disk with no engine re-run. The short mode runs in `make ci`; the
# nightly workflow runs the full cycle and uploads its artifacts.
drain-e2e:
	./scripts/drain-e2e.sh

drain-e2e-full:
	DRAIN_E2E_FULL=1 ./scripts/drain-e2e.sh

# Distributed-execution e2e: coordinator + workers over the shard lease
# protocol, kill -9 a worker holding a lease mid-sweep, and require the
# shard to requeue on lease expiry, the merged result to byte-match the
# single-process run, and accepted completions to equal the shard count
# exactly (no duplicate engine-run side effects). Also kill -9 the
# coordinator itself mid-sweep and require the restart to resume the
# job from the dispatch journal with zero re-execution of shards whose
# results already reached the store. Finally, run two coordinators and
# a direct-publishing worker over one shared store directory: kill -9
# the worker between its store publish and its completion POST and
# require the coordinator to recover the shard from the store, then
# require the sibling coordinator to serve the sweep byte-identically
# as a store hit. Short mode runs in `make ci`; the nightly workflow
# runs the full scale with journal/store listings as artifacts.
cluster-e2e:
	./scripts/cluster-e2e.sh

cluster-e2e-full:
	CLUSTER_E2E_FULL=1 ./scripts/cluster-e2e.sh

# Full-scale root benchmarks (slow).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The zero-allocation guards for the precoding hot path, the DES event
# engine and medium, a whole steady-state TXOP and a warmed channel
# model's evolve-and-read, plus the guards that deriving a random stream
# never seeds a generator, that deriving a child seed allocates nothing,
# that a stream allocates at most twice however much it draws and that
# the medium's power rows come from slabs rather than one allocation
# each, run explicitly so a CI log shows them even though `make test`
# also covers them.
alloc-guard:
	$(GO) test -run 'TestSolverZeroAlloc|TestWorkspaceZeroAlloc|TestEngineZeroAlloc|TestBackoffZeroAlloc|TestAirZeroAlloc|TestAirPowerRows|TestTXOPZeroAlloc|TestModelZeroAlloc|TestSplitDoesNotSeed|TestSplitSeedZeroAlloc|TestSourceAllocs' -v ./internal/precoding ./internal/matrix ./internal/mac ./internal/sim ./internal/channel ./internal/rng

# Coverage floors for the layers whose bugs are subtle at runtime: the
# engine's random streams, geometry, topology generators and placement,
# linear algebra, PHY sounding, precoders, channel model and link
# table, AP decision layer, event engine and medium, and simulation
# drivers, the stats accumulators and the scenario/replication engine
# (wrong numbers type-check fine), the runner's worker pool
# (concurrency bugs surface only under load), the serving layer
# (lifecycle/caching races surface only under load), and the durable
# store (crash-safety bugs surface only on the restart after the crash)
# must stay >= 80% line-covered, as must the dispatch coordinator
# (lease-requeue correctness is exactly the kind of logic that rots
# silently), the job journal (a replay bug only surfaces on the restart
# after the crash) and the API error envelope. The per-package totals
# print either way; a package under its floor fails the target (and
# `make ci`).
COVER_FLOOR = 80
cover:
	@set -e; for pkg in ./internal/rng ./internal/geom ./internal/topology ./internal/matrix ./internal/phy ./internal/precoding ./internal/channel ./internal/core ./internal/mac ./internal/sim ./internal/stats ./internal/runner ./internal/scenario ./internal/service ./internal/store ./internal/telemetry ./internal/dispatch ./internal/journal ./internal/api; do \
		profile=$$(mktemp); \
		$(GO) test -coverprofile=$$profile $$pkg > /dev/null; \
		pct=$$($(GO) tool cover -func=$$profile | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f $$profile; \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v m="$(COVER_FLOOR)" 'BEGIN { exit (p >= m) ? 0 : 1 }' || \
			{ echo "coverage of $$pkg fell below $(COVER_FLOOR)%"; exit 1; }; \
	done

fmt:
	gofmt -w .
