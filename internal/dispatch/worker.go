package dispatch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
)

// WorkerConfig configures one RunWorker loop.
type WorkerConfig struct {
	// Coordinator is the base URL of the coordinator's dispatch
	// listener (e.g. http://127.0.0.1:9091). Required.
	Coordinator string
	// ID names this worker in leases, logs and the live-worker gauge.
	// Required (the cluster scripts use host-pid style names).
	ID string
	// Parallelism overrides each shard's inner budget with this
	// worker's own core allowance; <= 0 keeps what the lease carried.
	// Results never depend on it.
	Parallelism int
	// MaxBatch is how many shards to request per poll; <= 0 lets the
	// coordinator pick (its MaxBatch cap applies either way).
	MaxBatch int
	// MaxShards, when > 0, exits the loop after completing that many
	// shards — the cluster-e2e script uses it to stage a worker that
	// does a fixed amount of work and stops.
	MaxShards int
	// Poll is the idle re-poll interval when a lease request returns no
	// work; <= 0 selects 200ms.
	Poll time.Duration
	// Client issues the HTTP calls; nil uses a client with a 30s
	// timeout.
	Client *http.Client
	// Log receives per-shard lifecycle lines; nil discards them.
	Log *slog.Logger
	// Run executes one shard spec — the seam the crash/failure tests
	// inject into. Nil selects the real engine path: resolve the
	// scenario by spec.Scenario and run it with the spec's derived
	// seed, exactly like one task inside scenario.RunResolved.
	Run func(ctx context.Context, spec scenario.Spec) (scenario.Result, error)
	// Store, when non-nil, makes this worker a first-class store
	// citizen: each completed shard's result envelope is published to
	// the store under the lease's Hash, and the completion POST carries
	// a hash-plus-digest acknowledgement instead of the result bytes.
	// The store must be the same one the coordinator reads (a shared
	// mount — see store.OpenSharedDir). A publish failure, or a
	// coordinator "resend" verdict, falls back to the inline path.
	Store *store.Store
	// HoldAfterPublish, when non-nil, runs between a successful store
	// publish and the completion POST — the acknowledgement window. The
	// crash tests (and cluster-e2e's kill -9 phase) park the worker
	// here to prove the coordinator recovers the published result from
	// the store with zero re-execution.
	HoldAfterPublish func()
}

func (cfg WorkerConfig) poll() time.Duration {
	if cfg.Poll > 0 {
		return cfg.Poll
	}
	return 200 * time.Millisecond
}

// runShard is the default WorkerConfig.Run: the same sc.Run call
// RunResolved's pool makes for this task, which is what keeps a
// distributed run byte-identical to a local one.
func runShard(_ context.Context, spec scenario.Spec) (scenario.Result, error) {
	sc, err := scenario.Find(spec.Scenario)
	if err != nil {
		return scenario.Result{}, err
	}
	return sc.Run(spec, rng.New(spec.Seed))
}

// RunWorker polls the coordinator for shard leases, executes each
// shard, and reports completions until ctx is cancelled or MaxShards
// is reached. A shard in flight when ctx fires is finished and
// reported anyway (the final publish uses its own context): orderly
// shutdown wastes no lease TTL. Returns nil on clean exit; transport
// errors are retried with backoff, never fatal — a worker outliving a
// coordinator restart just keeps polling until the new incarnation
// answers.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return errors.New("dispatch: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		return errors.New("dispatch: worker needs an id")
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	run := cfg.Run
	if run == nil {
		run = runShard
	}

	completed := 0
	protoLogged := false
	// Transport-failure backoff, reset by any successful exchange.
	const idleBackoffMax = 5 * time.Second
	backoff := cfg.poll()
	for {
		if ctx.Err() != nil {
			return nil
		}
		var resp LeaseResponse
		err := postJSON(ctx, client, cfg.Coordinator+"/v1/shards/lease",
			LeaseRequest{Proto: ProtoVersion, Worker: cfg.ID, Max: cfg.MaxBatch}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			log.Warn("worker lease poll failed", "worker", cfg.ID, "error", err.Error())
			if !sleepCtx(ctx, backoff) {
				return nil
			}
			if backoff *= 2; backoff > idleBackoffMax {
				backoff = idleBackoffMax
			}
			continue
		}
		if !protoLogged {
			// Negotiated = min(ours, theirs); a proto-0 response is a
			// pre-versioning coordinator (field absent).
			negotiated := resp.Proto
			if negotiated > ProtoVersion {
				negotiated = ProtoVersion
			}
			log.Info("worker negotiated dispatch protocol",
				"worker", cfg.ID, "proto", negotiated,
				"coordinator_proto", resp.Proto, "direct_publish", cfg.Store != nil)
			protoLogged = true
		}
		backoff = cfg.poll()
		if len(resp.Leases) == 0 {
			if !sleepCtx(ctx, cfg.poll()) {
				return nil
			}
			continue
		}
		for li, l := range resp.Leases {
			if ctx.Err() != nil {
				// Shutdown mid-batch: abandon the remaining leases — their
				// TTLs expire and the shards requeue to live workers —
				// instead of computing a whole batch nobody is waiting for.
				log.Info("worker abandoning remaining leases on shutdown",
					"worker", cfg.ID, "abandoned", len(resp.Leases)-li)
				return nil
			}
			spec := l.Spec
			if cfg.Parallelism > 0 {
				spec.Parallelism = cfg.Parallelism
			}
			log.Info("worker running shard",
				"worker", cfg.ID, "lease", l.ID, "dispatch_job", l.Job,
				"shard", l.Shard, "attempt", l.Attempt, "scenario", spec.Scenario)
			start := time.Now()
			res, runErr := run(ctx, spec)
			// Publish detached from ctx: an in-flight result at shutdown is
			// worth the one extra round-trip, and completion is idempotent
			// if the lease already moved on. The detached context carries
			// its own short deadline so shutdown latency stays bounded even
			// against a hung coordinator.
			status, pubErr := reportShard(client, cfg, log, l, res, runErr)
			if pubErr != nil {
				log.Warn("worker completion failed",
					"worker", cfg.ID, "lease", l.ID, "error", pubErr.Error())
			} else {
				log.Info("worker shard complete",
					"worker", cfg.ID, "lease", l.ID, "dispatch_job", l.Job,
					"shard", l.Shard, "status", status,
					"elapsed", time.Since(start).String())
			}
			if runErr == nil && pubErr == nil {
				completed++
				if cfg.MaxShards > 0 && completed >= cfg.MaxShards {
					log.Info("worker reached shard budget", "worker", cfg.ID, "shards", completed)
					return nil
				}
			}
		}
	}
}

// reportShard reports one lease's outcome, choosing the wire shape:
//
//   - Failure, or no store, or a lease with no Hash: the classic
//     inline CompleteRequest (result or error in the body).
//   - Store + lease Hash: direct publish. The worker encodes the
//     result envelope FROM THE LEASE'S ORIGINAL SPEC (the canonical
//     bytes every publisher of this address produces), writes it to
//     the store under the lease Hash, then completes with the hash
//     and the payload's sha256 digest — the result bytes never
//     transit the dispatch HTTP body. A store failure falls back to
//     inline; a coordinator "resend" verdict (it could not verify the
//     blob on its side of the mount) re-POSTs inline once.
func reportShard(client *http.Client, cfg WorkerConfig, log *slog.Logger, l ShardLease, res scenario.Result, runErr error) (string, error) {
	inline := func() (string, error) {
		req := CompleteRequest{Proto: ProtoVersion, Worker: cfg.ID}
		if runErr != nil {
			req.Error = runErr.Error()
		} else {
			req.Result = &res
		}
		return completeWithRetry(client, cfg.Coordinator, l.ID, req)
	}
	if runErr != nil || cfg.Store == nil || l.Hash == "" {
		return inline()
	}
	payload, err := scenario.PublishResult(cfg.Store, l.Hash, l.Spec, res)
	if err != nil {
		log.Warn("worker direct publish failed, sending inline",
			"worker", cfg.ID, "lease", l.ID, "shard_hash", l.Hash, "error", err.Error())
		return inline()
	}
	log.Info("worker direct-published shard result",
		"worker", cfg.ID, "lease", l.ID, "shard_hash", l.Hash, "bytes", len(payload))
	if cfg.HoldAfterPublish != nil {
		cfg.HoldAfterPublish()
	}
	sum := sha256.Sum256(payload)
	status, err := completeWithRetry(client, cfg.Coordinator, l.ID, CompleteRequest{
		Proto:      ProtoVersion,
		Worker:     cfg.ID,
		StoredHash: l.Hash,
		Digest:     hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return status, err
	}
	if status == "resend" {
		log.Warn("coordinator could not verify direct publish, resending inline",
			"worker", cfg.ID, "lease", l.ID, "shard_hash", l.Hash)
		return inline()
	}
	return status, nil
}

// completePublishTimeout bounds each attempt of the final completion
// publish. The publish deliberately ignores the worker's run context
// (an in-flight result at shutdown must still be reported), so this
// deadline is the only thing standing between a hung coordinator and
// an unbounded shutdown. A var so the shutdown-latency test can
// tighten it.
var completePublishTimeout = 5 * time.Second

// completeWithRetry publishes one completion with a short retry on
// transport failure, each attempt under its own detached
// completePublishTimeout deadline. Safe to repeat: a re-delivered
// completion lands as "duplicate" or "stale" and is discarded.
func completeWithRetry(client *http.Client, base, leaseID string, req CompleteRequest) (string, error) {
	var resp CompleteResponse
	var err error
	for attempt, wait := 0, 100*time.Millisecond; attempt < 3; attempt, wait = attempt+1, wait*2 {
		if attempt > 0 {
			time.Sleep(wait)
		}
		pctx, cancel := context.WithTimeout(context.Background(), completePublishTimeout)
		err = postJSON(pctx, client, base+"/v1/shards/"+leaseID+"/complete", req, &resp)
		cancel()
		if err == nil {
			return resp.Status, nil
		}
	}
	return "", err
}

// postJSON is the worker's one HTTP verb: POST a JSON body, decode a
// JSON reply, surface non-2xx as an error with the server's message.
func postJSON(ctx context.Context, client *http.Client, url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// Parse the unified error envelope rather than sniffing status
		// text; ServeMux's own plain-text 404/405 (a wrong listener or
		// route) still surfaces via api.Parse's fallback.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %w", url, resp.Status, api.Parse(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps for d or until ctx is done; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
