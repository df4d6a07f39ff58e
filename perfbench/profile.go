package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// cpuProfile is the part of a runtime/pprof CPU profile the summary
// needs: each sample's CPU time and its stack as function names, leaf
// first (inlined frames expanded).
type cpuProfile struct {
	samples []cpuSample
	total   time.Duration
}

type cpuSample struct {
	cpu   time.Duration
	stack []string
}

// readProfile symbolizes a CPU profile with the Go toolchain's
// `go tool pprof -traces`, which prints every sample's CPU time and
// stack as text.
func readProfile(path string) (*cpuProfile, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, stderr.Bytes())
	}
	p, err := parseTraces(string(out))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return p, nil
}

// traceSeparator starts each sample in `go tool pprof -traces` output.
const traceSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces` output: a header, then per
// sample a separator line, a line holding the sample's value and its
// leaf function, and one line per caller frame.
func parseTraces(text string) (*cpuProfile, error) {
	blocks := strings.Split(text, "\n"+traceSeparator)
	p := &cpuProfile{}
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // drop the rest of the separator line
		if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" {
			continue // the closing separator
		}
		value, leaf, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
		if !ok {
			return nil, fmt.Errorf("sample line %q has no function", lines[0])
		}
		d, err := time.ParseDuration(value)
		if err != nil {
			return nil, fmt.Errorf("sample value %q: %v", value, err)
		}
		s := cpuSample{cpu: d, stack: []string{frameName(leaf)}}
		for _, l := range lines[1:] {
			if fn := strings.TrimSpace(l); fn != "" {
				s.stack = append(s.stack, frameName(fn))
			}
		}
		p.samples = append(p.samples, s)
		p.total += d
	}
	if p.total == 0 {
		return nil, fmt.Errorf("profile holds no CPU time")
	}
	return p, nil
}

// frameName strips pprof's marker of an inlined frame.
func frameName(s string) string { return strings.TrimSuffix(strings.TrimSpace(s), " (inline)") }

// packageOf maps a function name to its package path:
// "repro/internal/mac.(*Air).linkPower" -> "repro/internal/mac".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cumShare is the fraction of CPU time whose stack holds a function
// matching pred.
func (p *cpuProfile) cumShare(pred func(fn string) bool) float64 {
	var t time.Duration
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if pred(fn) {
				t += s.cpu
				break
			}
		}
	}
	return float64(t) / float64(p.total)
}

// isLinkPower matches the medium's propagation computation.
func isLinkPower(fn string) bool { return fn == "repro/internal/mac.(*Air).linkPower" }

// isEventHeap matches the DES event queue: container/heap and the mac
// package's eventQueue methods.
func isEventHeap(fn string) bool {
	return strings.HasPrefix(fn, "container/heap.") || strings.Contains(fn, "repro/internal/mac.eventQueue.") ||
		strings.Contains(fn, "repro/internal/mac.(*eventQueue).")
}

// packageSummary renders self CPU time per package, largest first,
// with the cumulative shares of the propagation math and the event
// heap.
func (p *cpuProfile) packageSummary() string {
	self := map[string]time.Duration{}
	for _, s := range p.samples {
		self[packageOf(s.stack[0])] += s.cpu
	}
	pkgs := make([]string, 0, len(self))
	for k := range self {
		pkgs = append(pkgs, k)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if self[pkgs[i]] != self[pkgs[j]] {
			return self[pkgs[i]] > self[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "CPU %.2fs over %d samples\n", p.total.Seconds(), len(p.samples))
	fmt.Fprintf(&b, "cumulative  %5.1f%%  mac.(*Air).linkPower (propagation: channel shadowing + path loss)\n", 100*p.cumShare(isLinkPower))
	fmt.Fprintf(&b, "cumulative  %5.1f%%  event heap (container/heap + mac.eventQueue)\n", 100*p.cumShare(isEventHeap))
	fmt.Fprintf(&b, "self time by package:\n")
	for _, k := range pkgs {
		fmt.Fprintf(&b, "  %5.1f%%  %s\n", 100*float64(self[k])/float64(p.total), k)
	}
	return b.String()
}
