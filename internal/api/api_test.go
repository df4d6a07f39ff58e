package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestWriteAndParseRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, 404, "unknown_job", "service: unknown job")
	if rec.Code != 404 {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	e := Parse(rec.Body.Bytes())
	if e.Message != "service: unknown job" || e.Code != "unknown_job" || e.RetryAfterSeconds != 0 {
		t.Fatalf("Parse = %+v", e)
	}
	if got := e.Error(); got != "service: unknown job (unknown_job)" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestWriteRetrySetsHeaderAndBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteRetry(rec, 503, "queue_full", "service: job queue full", 7)
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	e := Parse(rec.Body.Bytes())
	if e.RetryAfterSeconds != 7 || e.Code != "queue_full" {
		t.Fatalf("Parse = %+v", e)
	}
	// The envelope must be the documented shape, key for key.
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	for _, key := range []string{"error", "code", "retry_after_seconds"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("envelope missing %q: %v", key, raw)
		}
	}
}

func TestWriteRetryZeroOmitsHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteRetry(rec, 503, "draining", "service: shutting down", 0)
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("Retry-After = %q, want unset", got)
	}
}

func TestParsePlainTextFallback(t *testing.T) {
	e := Parse([]byte("  something broke\n"))
	if e.Message != "something broke" || e.Code != "" {
		t.Fatalf("Parse plain text = %+v", e)
	}
	if got := e.Error(); got != "something broke" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestParseEmptyBody(t *testing.T) {
	e := Parse(nil)
	if e == nil || e.Message == "" {
		t.Fatalf("Parse(nil) = %+v, want non-empty message", e)
	}
}

func TestParseNonEnvelopeJSON(t *testing.T) {
	// JSON that is not the envelope (no "error" key) falls back to the
	// raw body as message, so nothing is silently swallowed.
	body := `{"status": "broken"}`
	e := Parse([]byte(body))
	if e.Code != "" || !strings.Contains(e.Message, "broken") {
		t.Fatalf("Parse = %+v", e)
	}
}

// FuzzParse: Parse accepts any body without panicking and always
// returns a non-nil Error with a non-empty Message, and every envelope
// Write or WriteRetry emits parses back to what was written.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"error":"service: job queue full","code":"queue_full","retry_after_seconds":1}`), "service: unknown job", "unknown_job", 0)
	f.Add([]byte("404 page not found\n"), "Method Not Allowed", "", 3)
	f.Add([]byte("Method Not Allowed\n"), "", "bad_request", -1)
	f.Add([]byte(`{"status": "broken"}`), "  ", "x", 1<<40)
	f.Add([]byte(`{"error":""}`), "é\n\"quoted\"", "proto_unsupported", 30)
	f.Add([]byte{}, "m", "c", 0)
	f.Fuzz(func(t *testing.T, body []byte, msg, code string, retry int) {
		e := Parse(body)
		if e == nil || e.Message == "" {
			t.Fatalf("Parse(%q) = %+v, want non-nil with a message", body, e)
		}

		if !utf8.ValidString(msg) || !utf8.ValidString(code) {
			return // JSON coerces invalid UTF-8, so those cannot round-trip
		}
		const status = http.StatusServiceUnavailable
		want := Error{Message: msg, Code: code}
		if msg == "" {
			want.Message = http.StatusText(status)
		}
		rec := httptest.NewRecorder()
		Write(rec, status, code, msg)
		if got := Parse(rec.Body.Bytes()); *got != want {
			t.Fatalf("Write(%q, %q) parsed back as %+v, want %+v", code, msg, *got, want)
		}
		want.RetryAfterSeconds = retry
		rec = httptest.NewRecorder()
		WriteRetry(rec, status, code, msg, retry)
		if got := Parse(rec.Body.Bytes()); *got != want {
			t.Fatalf("WriteRetry(%q, %q, %d) parsed back as %+v, want %+v", code, msg, retry, *got, want)
		}
	})
}
