// Command midas-serve is the long-running scenario server: the whole
// experiment registry behind an HTTP job API, with spec-hash result
// caching, so identical specs are computed once and then served from
// memory. With -store-dir, completed results are additionally
// persisted to a crash-safe on-disk store (internal/store) before
// their jobs report done, so a restart — clean or kill -9 — serves
// every previously computed spec from disk without re-running the
// engine.
//
//	midas-serve [-addr host:port] [-workers N] [-queue N] [-cache N]
//	            [-store-dir DIR] [-store-max-bytes N]
//	            [-dispatch-listen host:port] [-lease-ttl DUR]
//	            [-shard-attempts N] [-resume=false]
//	            [-log text|json|off] [-pprof]
//
//	POST   /v1/jobs             submit a spec (midas-sim -spec schema)
//	GET    /v1/jobs/{id}        status + progress
//	GET    /v1/jobs/{id}/result result snapshot (JSON sink rendering)
//	GET    /v1/results/{hash}   content-addressed result snapshot
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/scenarios        registry listing with default specs
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
//	/debug/pprof/...            live profiling (only with -pprof)
//
// Per-job lifecycle events (submitted, running, finished) are logged
// as structured lines keyed by job ID and spec hash, plus one
// access-log line per HTTP request; -log picks the slog handler.
//
// -addr with port 0 binds an ephemeral port; the actual address is
// printed as "midas-serve listening on http://host:port" so scripted
// callers (make serve-smoke) can discover it. SIGINT/SIGTERM drain
// gracefully: in-flight jobs finish, then the process exits; a second
// signal cancels them.
//
// With -dispatch-listen, the server additionally runs as a dispatch
// coordinator: a second listener serves the shard-lease protocol
// (internal/dispatch) to midas-worker processes, and jobs whose specs
// expand to multiple runs are sharded across the worker fleet instead
// of the in-process pool — with byte-identical results, since both
// paths share the engine's decomposition. While no worker is live,
// execution transparently falls back in-process, so a coordinator with
// no fleet degrades to a plain single-process server. An idle
// worker's lease request parks at the coordinator until a shard is
// ready, so a sweep starts the moment it is submitted.
//
// A coordinator with a store additionally journals every dispatched
// job (the resolved spec, for re-admission, under <store-dir>/journal)
// and publishes each accepted shard result into the store by the
// shard spec's content address. On restart the journal's non-terminal
// jobs are re-admitted automatically (disable with -resume=false):
// shards whose results are already on disk are answered from the store
// without re-execution, so a kill -9 mid-sweep costs at most the
// shards that were in flight. The same addressing means sweeps sharing
// sweep points — across jobs, restarts or tenants of one store —
// compute each shared shard exactly once.
//
// -store-dir may be written by several processes at once, on one host
// or a shared filesystem: sibling coordinators serve each other's
// results as store hits (no re-execution), and workers given the same
// directory (midas-worker -store-dir) publish shard results directly
// into the store, shrinking the completion POST to a hash-plus-digest
// acknowledgement that the coordinator verifies against the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

var (
	addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	workers  = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS); each job also fans expanded runs over the engine pool")
	queue    = flag.Int("queue", 0, "queued-job bound before submissions are rejected (0 = 64)")
	cache    = flag.Int("cache", 0, "spec-hash result cache entries (0 = 128, negative disables)")
	storeDir = flag.String("store-dir", "",
		"durable result store directory (empty = memory-only); created if absent, survives restarts and kill -9")
	storeMaxBytes = flag.Int64("store-max-bytes", 0,
		"byte budget for -store-dir before LRU eviction (0 = unbounded)")
	retain  = flag.Int("retain", 0, "terminal jobs kept pollable before the oldest are forgotten (0 = 512)")
	drain   = flag.Duration("drain", time.Minute, "how long a shutdown signal waits for in-flight jobs before cancelling them")
	logFmt  = flag.String("log", "text", "structured log handler on stderr: text, json or off")
	pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

	dispatchListen = flag.String("dispatch-listen", "",
		"serve the shard-lease protocol to midas-worker fleets on this address (empty = no coordinator; port 0 picks an ephemeral port)")
	leaseTTL = flag.Duration("lease-ttl", 30*time.Second,
		"shard lease deadline; a worker silent this long after taking a shard has it requeued")
	shardAttempts = flag.Int("shard-attempts", 5,
		"lease attempts per shard before its job fails (requeues from expiry or worker errors consume the budget)")
	resume = flag.Bool("resume", true,
		"replay journaled in-flight sweeps at startup (journaling needs -store-dir and -dispatch-listen)")
)

// newLogger builds the slog logger the -log flag asks for.
func newLogger() (*slog.Logger, error) {
	switch *logFmt {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return slog.New(slog.DiscardHandler), nil
	}
	return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", *logFmt)
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "midas-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	log, err := newLogger()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeMaxBytes, Log: log})
		if err != nil {
			return err
		}
		stats := st.Stats()
		// Scripted callers (scripts/drain-e2e.sh) parse this line to
		// assert restart survival; keep the format stable.
		fmt.Printf("midas-serve store: %d entries, %d bytes warm from %s\n",
			stats.Entries, stats.Bytes, *storeDir)
	} else if *storeMaxBytes != 0 {
		return errors.New("-store-max-bytes needs -store-dir")
	}
	// One registry for the whole process: the service's instruments and
	// (when coordinating) the dispatch layer's render on the same
	// /metrics page.
	reg := telemetry.NewRegistry()

	// With -dispatch-listen, multi-run jobs go to the worker fleet via
	// the coordinator — unless no worker is live, in which
	// case (and for single-run specs, which have nothing to shard) the
	// job runs in-process exactly as before. Both paths share the
	// engine's decomposition, so the choice never shows in the bytes.
	var coord *dispatch.Coordinator
	var dln net.Listener
	if *dispatchListen != "" {
		dln, err = net.Listen("tcp", *dispatchListen)
		if err != nil {
			return err
		}
		// With a store, the coordinator journals every dispatched job
		// under the store dir and publishes each accepted shard result by
		// content address — which is what makes a kill -9 mid-sweep cost
		// at most the shards in flight.
		var jn *journal.Journal
		if st != nil {
			// Every coordinator on the store dir sees every sibling's
			// journal entries, which is safe because entries are advisory
			// resume hints — a clobbered or foreign entry costs at most a
			// recomputation, never a wrong result.
			jn, err = journal.Open(filepath.Join(*storeDir, "journal"), log)
			if err != nil {
				return err
			}
			// Scripted callers (scripts/cluster-e2e.sh) parse this line to
			// assert resume; keep the format stable.
			fmt.Printf("midas-serve journal: %d interrupted job(s) recovered from %s\n",
				jn.Len(), filepath.Join(*storeDir, "journal"))
		}
		coord = dispatch.New(dispatch.Config{
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *shardAttempts,
			Telemetry:   reg,
			Log:         log,
			Store:       st,
			Journal:     jn,
		})
		defer coord.Close()
	} else if *leaseTTL != 30*time.Second || *shardAttempts != 5 {
		return errors.New("-lease-ttl/-shard-attempts need -dispatch-listen")
	}
	runFunc := scenario.RunResolved
	if coord != nil {
		// Recovered jobs must route through the coordinator even while no
		// workers are live yet: the store prefill answers their
		// finished shards immediately, and only the missing shards wait
		// for the fleet. The in-process fallback would instead re-run the
		// whole sweep.
		runFunc = func(ctx context.Context, sc scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error) {
			if (spec.ExpandedRuns() > 1 && coord.LiveWorkers() >= 1) || coord.Resuming(spec.CanonicalHash()) {
				return coord.Run(ctx, sc, spec, opts)
			}
			return scenario.RunResolved(ctx, sc, spec, opts)
		}
	}

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		Store:        st,
		JobRetention: *retain,
		Telemetry:    reg,
		Log:          log,
		Run:          runFunc,
	})
	// Replay journaled half-finished sweeps: each recovered entry is
	// re-admitted as a fresh job that routes through the coordinator,
	// where the store prefill answers the already-published shards and
	// only the missing ones wait for the fleet.
	if *resume && coord != nil {
		for _, e := range coord.Recovered() {
			jst, rerr := svc.Resume(e.Spec)
			if rerr != nil {
				log.Warn("journaled job not re-admitted",
					"spec_hash", e.SpecHash, "scenario", e.Scenario, "error", rerr.Error())
				continue
			}
			log.Info("journaled job re-admitted",
				"job", jst.ID, "spec_hash", e.SpecHash, "scenario", e.Scenario)
		}
	}
	handler := svc.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Handler: handler}

	// The discovery lines scripted callers parse; keep the formats
	// stable (scripts/cluster-e2e.sh reads the dispatch one).
	fmt.Printf("midas-serve listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var dsrv *http.Server
	if coord != nil {
		dsrv = &http.Server{Handler: coord.Handler()}
		fmt.Printf("midas-serve dispatch listening on http://%s\n", dln.Addr())
		go func() { serveErr <- dsrv.Serve(dln) }()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain the job pool FIRST, with HTTP still up: the service
	// rejects new submissions the moment Shutdown begins (503, and
	// /healthz reports "draining"), while clients keep polling and can
	// collect the results of the jobs that are finishing — computing a
	// result during a drain and then refusing to serve it would waste
	// the whole point of draining. Only once the jobs are settled does
	// the listener close, with a short grace for in-flight requests.
	fmt.Println("midas-serve draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "midas-serve: drain expired, outstanding jobs cancelled:", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), httpExitGrace)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// The dispatch listener outlives the job drain on purpose: draining
	// jobs may be distributed, and killing the lease protocol under
	// them would only force every shard through the requeue machinery.
	// The jobs are settled by now, so closing the coordinator first
	// costs nothing and answers every parked lease request ("closed"),
	// which Shutdown would otherwise wait out for the whole hold.
	if dsrv != nil {
		coord.Close()
		if err := dsrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	fmt.Println("midas-serve stopped")
	return nil
}

// httpExitGrace bounds how long the listener stays open after the job
// drain for final status/result fetches; handlers are all sub-second,
// so this is generous.
const httpExitGrace = 5 * time.Second
