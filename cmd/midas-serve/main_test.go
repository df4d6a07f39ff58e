package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// readmeMetrics returns the backticked metric names in the first column
// of README's Observability table.
func readmeMetrics(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`(midas_[a-z0-9_]+)`")
	var names []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestReadmeMetricsExposed pins README's Observability table to the
// exposition: every metric it documents has a # TYPE line on /metrics
// when one registry is shared by a service with a store and a dispatch
// coordinator, the way midas-serve -store-dir -dispatch-listen wires
// them.
func TestReadmeMetricsExposed(t *testing.T) {
	names := readmeMetrics(t)
	if len(names) < 20 {
		t.Fatalf("parsed only %d metric names from README: %q", len(names), names)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry()
	coord := dispatch.New(dispatch.Config{Telemetry: reg, Store: st})
	defer coord.Close()
	svc := service.New(service.Config{Workers: 1, Store: st, Telemetry: reg})
	defer svc.Shutdown(context.Background())

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	exposition := rec.Body.String()
	for _, n := range names {
		if !strings.Contains(exposition, "\n# TYPE "+n+" ") {
			t.Errorf("README documents %s, but /metrics has no # TYPE line for it", n)
		}
	}
}
