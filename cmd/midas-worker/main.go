// Command midas-worker is the execution half of distributed sweep
// serving: it asks a midas-serve coordinator (its -dispatch-listen
// address) for shard leases, runs each shard through the same engine
// call the in-process pool makes, and publishes the results. Because
// every shard result is fully determined by its spec, workers are
// stateless and disposable — kill -9 one mid-shard and its leases
// expire back into the queue for someone else, with the merged result
// unchanged byte for byte (scripts/cluster-e2e.sh proves exactly
// that). An idle worker's lease request parks at the coordinator
// until a shard is ready (dispatch protocol 2), so a submitted sweep
// starts at once and there is no polling interval to tune.
//
//	midas-worker -coordinator http://host:port [-id NAME]
//	             [-max-batch N] [-store-dir DIR] [-log text|json|off]
//
// A worker runs each shard at the shard spec's parallelism, and the
// engine's pools never run more task bodies at once than the process's
// GOMAXPROCS. That is Go's own setting: start a worker under
// GOMAXPROCS=1 to run its shards one topology at a time. Results never
// depend on it.
//
// With -store-dir the worker is a first-class store citizen: each
// completed shard's result envelope is written directly into the
// durable store under the shard spec's canonical hash, and the
// completion POST shrinks to a hash-plus-digest acknowledgement the
// coordinator verifies against its own view of the store — the shard
// payload never transits the dispatch HTTP body. That only helps when
// coordinator and worker actually share the store (the same directory
// on one host or a shared mount); a worker whose store the coordinator
// cannot see just gets asked to resend inline, costing one extra round
// trip per shard. Without -store-dir the
// worker posts results inline exactly as before.
//
// MIDAS_WORKER_HOLD_AFTER_PUBLISH, when set to a Go duration, makes
// the worker pause that long between the store publish and the
// completion POST, printing "midas-worker <id> holding after publish"
// first — the acknowledgement window scripts/cluster-e2e.sh widens to
// prove a kill -9 inside it loses nothing (the coordinator recovers
// the published result from the store at lease expiry).
//
// SIGINT/SIGTERM exit gracefully: the shard in flight finishes and is
// published (completion is idempotent), then the loop returns. A
// coordinator restart is survived by retrying, with backoff, until the
// new incarnation answers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/store"
)

var (
	coordinator = flag.String("coordinator", "", "coordinator dispatch URL, e.g. http://127.0.0.1:9091 (required)")
	id          = flag.String("id", "", "worker name in leases and metrics (default host-pid)")
	maxBatch    = flag.Int("max-batch", 1, "shards to request per lease request (coordinator may cap)")
	storeDir    = flag.String("store-dir", "",
		"durable result store directory shared with the coordinator: shard results are published here directly and acknowledged by hash (empty = post results inline)")
	logFmt = flag.String("log", "text", "structured log handler on stderr: text, json or off")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "midas-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	var log *slog.Logger
	switch *logFmt {
	case "text":
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		log = slog.New(slog.DiscardHandler)
	default:
		return fmt.Errorf("unknown -log format %q (want text, json or off)", *logFmt)
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	wid := *id
	if wid == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wid = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: *storeDir, Log: log})
		if err != nil {
			return err
		}
		stats := st.Stats()
		fmt.Printf("midas-worker %s store: %d entries warm from %s\n",
			wid, stats.Entries, *storeDir)
	}

	// The acknowledgement-window hook: pause between the store publish
	// and the completion POST so crash tests can kill -9 a worker whose
	// result is already durable but not yet acknowledged.
	var hold func()
	if v := os.Getenv("MIDAS_WORKER_HOLD_AFTER_PUBLISH"); v != "" {
		d, derr := time.ParseDuration(v)
		if derr != nil {
			return fmt.Errorf("MIDAS_WORKER_HOLD_AFTER_PUBLISH: %w", derr)
		}
		hold = func() {
			// The discovery line scripts/cluster-e2e.sh waits for before
			// delivering the kill; keep the format stable.
			fmt.Printf("midas-worker %s holding after publish\n", wid)
			time.Sleep(d)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The discovery line scripted callers parse; keep the format stable.
	fmt.Printf("midas-worker %s polling %s\n", wid, *coordinator)
	err := dispatch.RunWorker(ctx, dispatch.WorkerConfig{
		Coordinator:      *coordinator,
		ID:               wid,
		MaxBatch:         *maxBatch,
		Store:            st,
		HoldAfterPublish: hold,
		Log:              log,
	})
	if err != nil {
		return err
	}
	fmt.Printf("midas-worker %s stopped\n", wid)
	return nil
}
