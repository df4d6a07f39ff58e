package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"

	"repro/internal/store"
)

// ResultEnvelope is the store-tier wire format for a completed result:
// the resolved spec that produced it plus the result itself. Storing
// the spec next to the result is what makes a content-addressed entry
// self-contained — a process that never saw the original submission
// (a restarted server, a sibling coordinator on a shared backend, the
// GET /v1/results/{hash} endpoint) can render the full response body,
// meta block included, from the entry alone.
type ResultEnvelope struct {
	Spec   Spec   `json:"spec"`
	Result Result `json:"result"`
}

// Encode renders the canonical envelope bytes for one (spec, result)
// pair. The encoding is deterministic AND parallelism-independent:
// Spec.Parallelism is canonicalized to 0 before marshalling, because
// CanonicalHash deliberately excludes it (results never depend on it) —
// so every writer of a given content address produces identical bytes,
// no matter what pool width it ran at. That is what makes concurrent
// same-hash publishes on a shared backend idempotent byte-for-byte,
// and what lets the coordinator verify a worker's direct publish by
// digest.
func EncodeResultEnvelope(spec Spec, res Result) ([]byte, error) {
	spec.Parallelism = 0
	b, err := json.MarshalIndent(ResultEnvelope{Spec: spec, Result: res}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeResultEnvelope inverts EncodeResultEnvelope, rejecting
// payloads that are not a consistent envelope — including pre-envelope
// entries that held a bare Result (LoadResult quarantines those and
// the caller recomputes; store entries are a cache, so the migration
// costs one re-run per legacy entry, never correctness).
func DecodeResultEnvelope(payload []byte) (ResultEnvelope, error) {
	var env ResultEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return ResultEnvelope{}, err
	}
	if env.Spec.Scenario == "" || env.Result.Scenario == "" {
		return ResultEnvelope{}, errors.New("scenario: payload is not a result envelope (missing spec or result)")
	}
	if env.Spec.Scenario != env.Result.Scenario {
		return ResultEnvelope{}, fmt.Errorf("scenario: envelope spec is %q but result is %q",
			env.Spec.Scenario, env.Result.Scenario)
	}
	return env, nil
}

// errNotStored reports that the store holds no result under the
// requested address (or that there is no store).
var errNotStored = errors.New("scenario: no result stored under that address")

// LoadResult reads the envelope stored under hash and pins it to that
// address: the payload must decode as an envelope whose spec hashes to
// hash, so a blob misfiled (or maliciously republished) under the
// wrong address is never served as another spec's result. An entry
// that fails either check was persisted by a buggy, legacy or future
// version: it is quarantined with a warning on log and the caller
// recomputes. The raw payload is returned next to the envelope for
// callers that verify a publisher's digest. A nil st is an empty
// store.
func LoadResult(st *store.Store, log *slog.Logger, hash string) (ResultEnvelope, []byte, error) {
	if st == nil {
		return ResultEnvelope{}, nil, errNotStored
	}
	payload, ok := st.Get(hash)
	if !ok {
		return ResultEnvelope{}, nil, errNotStored
	}
	env, err := DecodeResultEnvelope(payload)
	if err == nil {
		if got := env.Spec.CanonicalHash(); got != hash {
			err = fmt.Errorf("scenario: envelope spec hashes to %s, stored under %s", got, hash)
		}
	}
	if err != nil {
		log.Warn("stored result undecodable, quarantined", "spec_hash", hash, "error", err.Error())
		st.Quarantine(hash)
		return ResultEnvelope{}, nil, err
	}
	return env, payload, nil
}

// PublishResult writes the canonical envelope for (spec, res) to st
// under hash — spec's CanonicalHash — and returns the bytes written.
// Every publisher of an address writes identical bytes, so a duplicate
// publish is idempotent.
func PublishResult(st *store.Store, hash string, spec Spec, res Result) ([]byte, error) {
	payload, err := EncodeResultEnvelope(spec, res)
	if err != nil {
		return nil, err
	}
	if err := st.Put(hash, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
