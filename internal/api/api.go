// Package api is the one error shape every HTTP surface of the system
// speaks: the job API (internal/service), the dispatch lease protocol
// (internal/dispatch) and any future listener all emit the same JSON
// envelope for non-2xx responses, and every client (midas-loadgen,
// midas-worker) parses it instead of sniffing status text.
//
// The envelope:
//
//	{"error": "human message", "code": "machine_code", "retry_after_seconds": N}
//
// "error" is always present and never empty. "code" is a stable
// machine-readable discriminator (snake_case; clients branch on it,
// never on the message). "retry_after_seconds" appears only on
// backpressure responses and mirrors the Retry-After header — clients
// behind header-stripping proxies still get the hint.
//
// Not every non-2xx answer passes through Write: Go's http.ServeMux
// answers unmatched routes itself, in plain text ("404 page not
// found", "Method Not Allowed"), as when a worker is pointed at the
// job API listener instead of the dispatch listener. Parse therefore
// keeps a plain-text branch; such a body surfaces as its trimmed text
// with an empty Code.
package api

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// Error is the unified v1 error envelope. It implements error, so
// clients can return a parsed envelope directly up their call stack.
type Error struct {
	// Message is the human-readable description (the "error" key).
	Message string `json:"error"`
	// Code is the stable machine-readable discriminator; empty when the
	// body was not an envelope (e.g. ServeMux's plain-text 404 or 405).
	Code string `json:"code,omitempty"`
	// RetryAfterSeconds, when > 0, is how long the server suggests
	// waiting before retrying — the JSON mirror of the Retry-After
	// header, carried in-band for header-stripping proxies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Message + " (" + e.Code + ")"
}

// Write emits the envelope with the given HTTP status.
func Write(w http.ResponseWriter, status int, code, message string) {
	writeEnvelope(w, status, Error{Message: message, Code: code})
}

// WriteRetry emits the envelope with a retry hint, and sets the
// Retry-After header to match — the header for RFC 9110 clients, the
// body field for everyone else.
func WriteRetry(w http.ResponseWriter, status int, code, message string, retryAfterSeconds int) {
	if retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeEnvelope(w, status, Error{Message: message, Code: code, RetryAfterSeconds: retryAfterSeconds})
}

func writeEnvelope(w http.ResponseWriter, status int, e Error) {
	if e.Message == "" {
		// Parse reads an empty "error" as "not an envelope".
		e.Message = http.StatusText(status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(e) // nothing to do about a broken client connection
}

// Parse reads an error response body into an Error. A JSON envelope is
// decoded as such; anything else (a plain-text body such as
// ServeMux's own 404/405 answers, an empty body) degrades to a
// message-only Error with no Code. Parse never returns nil, and its
// Message is never empty.
func Parse(body []byte) *Error {
	var e Error
	if err := json.Unmarshal(body, &e); err == nil && e.Message != "" {
		return &e
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = "(empty error body)"
	}
	return &Error{Message: msg}
}
