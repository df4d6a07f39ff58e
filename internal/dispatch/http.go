package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// ProtoVersion is the dispatch wire protocol this coordinator speaks.
// Version 1 added the "proto" field itself plus worker direct-publish
// (ShardLease.Hash, CompleteRequest.StoredHash/Digest); version 2
// parks a lease request that finds nothing ready (a long poll). Every
// request must carry a version from 1 to ProtoVersion: a request
// without one, or claiming a newer one, is refused with code
// "proto_unsupported" — so a newer worker never silently degrades
// against an older coordinator (it backs off on the refusal instead of
// spinning on immediate empty grants).
const ProtoVersion = 2

// Wire types of the lease protocol. Specs and results ride as their
// canonical JSON forms — the same encoding the serving API and the
// durable store use — so a worker's completion is exactly the payload
// a single-process run would have produced.

// LeaseRequest asks the coordinator for up to Max shard leases. The
// request is also the worker's liveness heartbeat: an empty grant
// still refreshes its TTL in the live set.
type LeaseRequest struct {
	Proto  int    `json:"proto"`
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// ShardLease is one granted shard: run Spec, report under ID before
// Deadline or the shard is requeued to someone else.
type ShardLease struct {
	ID       string        `json:"id"`
	Job      string        `json:"job"`
	Shard    int           `json:"shard"`
	Attempt  int           `json:"attempt"`
	Deadline time.Time     `json:"deadline"`
	Spec     scenario.Spec `json:"spec"`
	// Hash is the shard spec's content address — the durable-store key
	// the result will live under. A worker sharing the coordinator's
	// store publishes its result there directly and completes with a
	// hash-plus-digest acknowledgement instead of inline bytes. Empty
	// when the coordinator runs without a store.
	Hash string `json:"hash,omitempty"`
}

// LeaseResponse carries the granted batch, possibly empty. A request
// that finds nothing ready parks at the coordinator until a shard is,
// for at most half the coordinator's worker TTL; an empty answer means
// that hold ran out. The worker asks again at once, and the parked
// request doubles as its liveness heartbeat.
type LeaseResponse struct {
	Proto  int          `json:"proto"`
	Leases []ShardLease `json:"leases"`
}

// CompleteRequest reports one lease's outcome — exactly one of:
//
//   - Result: the shard result inline (the storeless path).
//   - StoredHash (+ Digest): the worker direct-published the result to
//     the shared store under the lease's Hash; Digest is the sha256 of
//     the stored envelope payload, which the coordinator checks after
//     reading the blob back. The shard payload never transits this
//     request.
//   - Error: the shard itself failed on the worker.
type CompleteRequest struct {
	Proto  int              `json:"proto"`
	Worker string           `json:"worker"`
	Result *scenario.Result `json:"result,omitempty"`
	// StoredHash acknowledges a direct publish: the content address the
	// worker wrote the result envelope under (must equal the lease's
	// Hash).
	StoredHash string `json:"stored_hash,omitempty"`
	// Digest is the sha256 (hex) of the envelope payload the worker
	// stored — the coordinator verifies the blob it reads back against
	// it, so a half-landed or foreign blob can never be accepted on the
	// worker's say-so.
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CompleteResponse tells the worker how the report landed. "accepted",
// "requeued", "duplicate" and "stale" are terminal for the lease —
// duplicate/stale mean the work was already accounted elsewhere and
// the payload was discarded, which the deterministic engine makes
// harmless. "resend" is NOT terminal: the coordinator could not verify
// a direct-publish acknowledgement against the store (blob missing,
// digest mismatch, undecodable) and the worker should re-POST the same
// lease with the result inline.
type CompleteResponse struct {
	Proto  int    `json:"proto"`
	Status string `json:"status"` // accepted | requeued | duplicate | stale | resend
}

// Handler serves the lease protocol:
//
//	POST /v1/shards/lease          LeaseRequest  -> LeaseResponse
//	POST /v1/shards/{id}/complete  CompleteRequest -> CompleteResponse
//
// Its counters and gauges are the midas_shards_*, midas_shard_* and
// midas_workers_live series on the registry midas-serve renders at
// GET /metrics.
//
// midas-serve mounts this on its -dispatch-listen address (kept off
// the public API listener so workers can live on a private network).
// Errors are the unified api.Error envelope.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/lease", c.handleLease)
	mux.HandleFunc("POST /v1/shards/{id}/complete", c.handleComplete)
	return mux
}

// checkProto refuses a request whose protocol version this
// coordinator does not speak: a newer one, or none at all.
func checkProto(w http.ResponseWriter, proto int) bool {
	if proto < 1 || proto > ProtoVersion {
		api.Write(w, http.StatusBadRequest, "proto_unsupported",
			fmt.Sprintf("dispatch: protocol version %d not supported (want 1..%d)", proto, ProtoVersion))
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if !checkProto(w, req.Proto) {
		return
	}
	if req.Worker == "" {
		api.Write(w, http.StatusBadRequest, "bad_request", "lease request needs a worker id")
		return
	}
	leases, err := c.lease(r.Context(), req.Worker, req.Max)
	if errors.Is(err, ErrClosed) {
		api.Write(w, http.StatusServiceUnavailable, "closed", "coordinator closed")
		return
	}
	if err != nil {
		return // the client went away while parked; nobody reads a reply
	}
	for _, sl := range leases {
		c.log.Info("dispatch shard leased",
			"lease", sl.ID, "worker", req.Worker,
			"dispatch_job", sl.Job, "shard", sl.Shard, "attempt", sl.Attempt)
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Proto: ProtoVersion, Leases: leases})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("id")
	var req CompleteRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if !checkProto(w, req.Proto) {
		return
	}
	now := time.Now()

	var status string
	var after func()
	if req.StoredHash != "" && req.Error == "" && req.Result == nil {
		status, after = c.completeDirect(leaseID, req, now)
	} else {
		c.mu.Lock()
		if req.Worker != "" {
			c.workers[req.Worker] = now
		}
		status, after = c.completeLocked(leaseID, req.Worker, req.Result, req.Error, false, now)
		c.mu.Unlock()
	}
	if after != nil {
		after()
	}
	c.log.Info("dispatch shard completion",
		"lease", leaseID, "worker", req.Worker, "status", status)
	writeJSON(w, http.StatusOK, CompleteResponse{Proto: ProtoVersion, Status: status})
}

// completeDirect verifies a direct-publish acknowledgement: the worker
// claims the result envelope is in the shared store under StoredHash.
// The coordinator trusts nothing it cannot read back — the blob must
// exist, match the worker's digest, decode as an envelope and hash to
// the lease's own expected address. Verification does the store read
// outside c.mu; on any failure the lease stays live and the worker is
// told "resend" (it re-POSTs the result inline — one extra round trip,
// never a lost shard).
func (c *Coordinator) completeDirect(leaseID string, req CompleteRequest, now time.Time) (string, func()) {
	c.mu.Lock()
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	l, ok := c.leases[leaseID]
	if !ok {
		// Dead lease: classify exactly like an inline completion would.
		status, after := c.completeLocked(leaseID, req.Worker, nil, "", false, now)
		c.mu.Unlock()
		return status, after
	}
	expected := l.sh.hash
	c.mu.Unlock()

	resend := func(why string) (string, func()) {
		c.tel.direct.With("resend").Inc()
		c.tel.completions.With("resend").Inc()
		c.log.Warn("dispatch direct publish unverified, asking for inline resend",
			"lease", leaseID, "worker", req.Worker, "stored_hash", req.StoredHash, "reason", why)
		return "resend", nil
	}

	// Shards carry a hash only when the coordinator has a store.
	if expected == "" {
		return resend("coordinator has no store")
	}
	if req.StoredHash != expected {
		return resend("acknowledged hash does not match the lease")
	}
	env, payload, err := scenario.LoadResult(c.cfg.Store, c.log, expected)
	if err != nil {
		return resend(err.Error())
	}
	if req.Digest != "" {
		sum := sha256.Sum256(payload)
		if hex.EncodeToString(sum[:]) != req.Digest {
			return resend("stored payload does not match worker digest")
		}
	}

	// The lease may have expired (and the shard been recovered or
	// re-granted) while we were reading the store; completeLocked
	// classifies that as duplicate/stale, same as any late completion.
	c.mu.Lock()
	status, after := c.completeLocked(leaseID, req.Worker, &env.Result, "", true, now)
	c.mu.Unlock()
	if status == "accepted" {
		c.tel.direct.With("verified").Inc()
	}
	return status, after
}

// maxBodyBytes caps dispatch POST bodies, mirroring the public API's
// 1MiB spec cap: a shard result is a bounded summary (series, metrics,
// quantile sketches — never raw samples), so anything larger is a bug
// or abuse, not data.
const maxBodyBytes = 1 << 20

// decodeBody decodes a capped JSON request body holding exactly one
// JSON value into v, writing the error response (413 for an oversized
// body, 400 otherwise, including trailing data after the value) itself;
// a non-nil return means the handler should stop.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if dec.Decode(new(json.RawMessage)) == io.EOF {
			return nil
		}
		err = errors.New("trailing data after the JSON value")
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		api.Write(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return err
	}
	api.Write(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
