package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
)

// This file is the HTTP face of the Service — the API cmd/midas-serve
// exposes:
//
//	POST   /v1/jobs             submit a spec (midas-sim -spec schema)
//	GET    /v1/jobs/{id}        job status + progress
//	GET    /v1/jobs/{id}/result rendered result snapshot (JSON sink)
//	GET    /v1/results/{hash}   content-addressed result snapshot
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/scenarios        registry listing with default specs
//	GET    /healthz             liveness (503 "draining" while draining, 200 "busy" at queue saturation)
//	GET    /metrics             Prometheus text exposition (counters, gauges, latency histograms)
//
// Results are rendered through the same runner.Meta + JSON sink path
// as midas-sim -format json, so an HTTP-served snapshot differs from
// the CLI's for the same spec only in the meta tool name — the
// property `make serve-smoke` pins end to end.
//
// Every non-2xx response carries the unified api.Error envelope:
// {"error": ..., "code": ..., "retry_after_seconds": N}.

// scenarioInfo is one row of GET /v1/scenarios.
type scenarioInfo struct {
	Name        string        `json:"name"`
	Aliases     []string      `json:"aliases,omitempty"`
	About       string        `json:"about,omitempty"`
	DefaultSpec scenario.Spec `json:"default_spec"`
}

// Handler builds the HTTP API over the service, wrapped in the
// access-log middleware (one structured line per request).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResultByHash)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.accessLog(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing to do about a broken client connection
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	api.Write(w, status, code, err.Error())
}

// maxSpecBytes bounds a submitted spec body. A valid spec is a few
// hundred bytes; the cap only exists so a hostile multi-gigabyte value
// array is rejected at the transport instead of being materialized by
// the JSON decoder before Validate's expansion cap can run.
const maxSpecBytes = 1 << 20

// handleSubmit decodes the request body as a spec (the midas-sim -spec
// schema, scenario named by its "scenario" field) and submits it. A
// job answered from the spec-hash cache returns 200 with its terminal
// status; a queued job returns 202 Accepted.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := scenario.DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec_too_large", err)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Transient backpressure, worth retrying shortly — unlike
		// draining, where this process will never accept the job. The
		// hint tracks how long the queue actually takes to drain
		// (observed run time × depth / workers), so honoring clients
		// come back when a slot is plausible instead of hammering. The
		// hint rides both the Retry-After header and the envelope's
		// retry_after_seconds (api.WriteRetry), so clients behind
		// header-stripping proxies still see it.
		api.WriteRetry(w, http.StatusServiceUnavailable, "queue_full", err.Error(), s.RetryAfterHint())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", err)
		return
	case err != nil:
		// Unknown scenario, ignored-knob override, validation failure:
		// the request itself is wrong.
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	setLogJob(r, st.ID)
	if st.State == StateDone {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	setLogJob(r, r.PathValue("id"))
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult renders a done job's result exactly as midas-sim
// -format json would: the resolved spec's meta block (tool
// "midas-serve") plus the result through the JSON sink. The rendering
// is deterministic, so cached and cold runs of one spec serve
// byte-identical bodies — which also makes the spec's canonical hash a
// valid strong ETag for the body: a client that saved it can revalidate
// with If-None-Match and get a body-less 304 across restarts, deploys,
// and any server that ever computed the same spec.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setLogJob(r, id)
	res, spec, err := s.Result(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	case errors.Is(err, ErrNotFinished):
		writeError(w, http.StatusConflict, "not_finished", err)
		return
	case err != nil:
		// Failed or cancelled: the job is terminal but has no result.
		writeError(w, http.StatusGone, "job_failed", err)
		return
	}
	s.writeRenderedResult(w, r, spec, res)
}

// handleResultByHash serves a completed result by its spec's canonical
// hash — no job id needed, which is what makes results portable across
// processes: any server sharing the durable store (or its backend, on
// a shared mount) serves a result computed by any other. The body is
// rendered by the identical path as GET /v1/jobs/{id}/result, so for a
// spec that leaves "parallelism" unset (it is excluded from the hash
// and canonicalized to the host default at render time) the two
// endpoints serve byte-identical bodies — same ETag, same
// If-None-Match revalidation.
func (s *Service) handleResultByHash(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !store.ValidHash(hash) {
		api.Write(w, http.StatusBadRequest, "bad_hash",
			"service: result address must be 64 lowercase hex characters (a spec's canonical sha256)")
		return
	}
	res, spec, err := s.ResultByHash(hash)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown_result", err)
		return
	}
	s.writeRenderedResult(w, r, spec, res)
}

// writeRenderedResult renders (spec, result) exactly as midas-sim
// -format json would — meta block plus the JSON sink — with the spec's
// canonical hash as a strong ETag. The rendering is deterministic, so
// cached, cold, restarted and sibling-process serves of one spec emit
// byte-identical bodies, and If-None-Match revalidation works across
// all of them.
func (s *Service) writeRenderedResult(w http.ResponseWriter, r *http.Request, spec scenario.Spec, res scenario.Result) {
	etag := `"` + spec.CanonicalHash() + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := runner.RenderJSON(spec.SinkMeta("midas-serve"), res.RunnerResult())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// etagMatches implements If-None-Match matching for one strong ETag: a
// comma-separated candidate list, "*" matching anything, and W/
// weak-comparison prefixes ignored (weak comparison is allowed for
// If-None-Match, RFC 9110 §13.1.2).
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	setLogJob(r, r.PathValue("id"))
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, "already_finished", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	names := scenario.Names()
	infos := make([]scenarioInfo, 0, len(names))
	for _, name := range names {
		sc, ok := scenario.Get(name)
		if !ok {
			continue
		}
		info := scenarioInfo{Name: name, DefaultSpec: sc.DefaultSpec()}
		if a, ok := sc.(scenario.About); ok {
			info.About = a.About()
		}
		if al, ok := sc.(scenario.Aliaser); ok {
			info.Aliases = al.Aliases()
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleHealth distinguishes the two unhappy states a balancer treats
// differently: draining is terminal for this process (503 — route
// elsewhere, permanently), queue saturation is transient backpressure
// (200 "busy" — the process is alive and will recover; submissions
// meanwhile get 503 + Retry-After).
func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.QueueSaturated():
		writeJSON(w, http.StatusOK, map[string]string{"status": "busy"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format 0.0.4.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.reg.Render(w) // nothing to do about a broken client connection
}
