package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func burnCPU(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestReadProfileAttributesCPUToPackages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if share := p.cumShare(func(fn string) bool { return strings.HasSuffix(fn, ".burnCPU") }); share < 0.5 {
		t.Errorf("burnCPU holds %.0f%% of the profile, want most of it", 100*share)
	}
	if s := p.packageSummary(); !strings.Contains(s, "self time by package:") {
		t.Errorf("summary lacks the package table:\n%s", s)
	}
}

const tracesText = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms (4.00%)
-----------+-------------------------------------------------------
      10ms   math.pow
             math.Pow (inline)
             repro/internal/mac.(*Air).linkPower
             repro/internal/mac.(*Engine).Run
-----------+-------------------------------------------------------
      20ms   container/heap.Push
             repro/internal/mac.(*Engine).Run
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
-----------+-------------------------------------------------------
`

func TestParseTracesReadsSamplesAndStacks(t *testing.T) {
	p, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 3 || p.total != 40*time.Millisecond {
		t.Fatalf("got %d samples totalling %v, want 3 totalling 40ms", len(p.samples), p.total)
	}
	if got := p.samples[0].stack[1]; got != "math.Pow" {
		t.Errorf("inlined frame read as %q, want math.Pow", got)
	}
	if got := p.cumShare(isLinkPower); got != 0.25 {
		t.Errorf("linkPower share %v, want 0.25", got)
	}
	if got := p.cumShare(isEventHeap); got != 0.5 {
		t.Errorf("event heap share %v, want 0.5", got)
	}
	if s := p.packageSummary(); !strings.Contains(s, "50.0%  container/heap") || !strings.Contains(s, "25.0%  math") {
		t.Errorf("summary has wrong self times:\n%s", s)
	}
}

func TestParseTracesRejectsBadInput(t *testing.T) {
	for _, text := range []string{
		"File: x\n",
		"File: x\n-----------+---\n      lots   math.pow\n",
		"File: x\n-----------+---\n      10ms\n",
	} {
		if _, err := parseTraces(text); err == nil {
			t.Errorf("parseTraces(%q) succeeded", text)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mac.(*Air).linkPower":       "repro/internal/mac",
		"math.Pow":                                  "math",
		"hash/fnv.(*sum64a).Write":                  "hash/fnv",
		"repro/internal/runner.Map[...].func1":      "repro/internal/runner",
		"container/heap.Push":                       "container/heap",
		"repro/internal/mac.(*eventQueue).Push":     "repro/internal/mac",
		"gcWriteBarrier":                            "gcWriteBarrier",
		"repro/internal/scenario.init.func1.gowrap": "repro/internal/scenario",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !isEventHeap("repro/internal/mac.(*eventQueue).Push") || !isEventHeap("container/heap.Fix") || isEventHeap("repro/internal/mac.(*Engine).Run") {
		t.Errorf("isEventHeap misclassifies the event queue")
	}
}
