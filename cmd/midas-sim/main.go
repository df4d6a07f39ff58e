// Command midas-sim runs registered experiments of the
// internal/scenario registry — every figure of the paper's evaluation
// plus the beyond-paper workloads — from a declarative JSON spec.
// -scenario names one scenario, a comma-separated list, or all (the
// whole registry in registration order); -spec loads a spec file, -set
// overrides individual fields (a comma-separated value declares a
// sweep), and the expanded runs execute on the internal/runner pool.
// Every listed scenario takes the same overrides, and all results go
// to one sink:
//
//	midas-sim -list
//	midas-sim -scenario fig12 -set seed=7
//	midas-sim -scenario all -set topologies=8 -set simtime=100ms
//	midas-sim -scenario fig15-end -spec examples/office/spec.json -set clients=8
//	midas-sim -scenario dense-venue -set clients=2,4,8 -format json
//	midas-sim -scenario fig15-end -set replicates=8    # mean ± 95% CI summaries
//
// -set replicates=N fans every run over N split seeds and reports
// {mean, stddev, ci95, n} summaries per metric and per series median
// instead of raw per-replicate output. -set parallelism=N bounds the
// worker pool (0 = GOMAXPROCS); results are identical at any value.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

var (
	scenarioName = flag.String("scenario", "", "run a registered scenario, a comma-separated list of them, or all (see -list); unique prefixes resolve")
	specPath     = flag.String("spec", "", "load scenario overrides from this JSON spec file")
	listAll      = flag.Bool("list", false, "list registered scenarios and exit")
	format       = flag.String("format", "text", "output format: text, json or csv")
	outPath      = flag.String("out", "", "write results to this file instead of stdout")
	setFlags     multiFlag
)

func init() {
	flag.Var(&setFlags, "set",
		"spec override key=value (repeatable); a comma-separated value sweeps, e.g. -set clients=2,4,8")
}

// multiFlag collects repeated -set flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	flag.Parse()
	if *listAll {
		listScenarios(os.Stdout)
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// listScenarios prints the registry with each scenario's description.
func listScenarios(w *os.File) {
	names := scenario.Names()
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		sc, _ := scenario.Get(n)
		about := ""
		if a, ok := sc.(scenario.About); ok {
			about = a.About()
		}
		fmt.Fprintf(w, "%-*s  %s\n", width, n, about)
	}
}

// run assembles the override spec from -spec and -set, renders the
// named scenarios' results, and writes them to -out or stdout.
func run() error {
	overrides := scenario.Spec{}
	if *specPath != "" {
		var err error
		overrides, err = scenario.LoadSpec(*specPath)
		if err != nil {
			return err
		}
	}
	for _, kv := range setFlags {
		if err := applySet(&overrides, kv); err != nil {
			return err
		}
	}
	out, err := render(*scenarioName, overrides, *format)
	if err != nil {
		return err
	}
	if *outPath != "" {
		return os.WriteFile(*outPath, out, 0o644)
	}
	_, err = os.Stdout.Write(out)
	return err
}

// render runs the scenarios that list names (or, when list is empty,
// the one the overrides name), each under the same overrides and in
// order, and renders every result through one sink in format. Every
// name, spec and the format are checked before any simulation starts.
func render(list string, overrides scenario.Spec, format string) ([]byte, error) {
	scs, err := resolveScenarios(list, overrides.Scenario)
	if err != nil {
		return nil, err
	}
	// Resolve up front: the recorded metadata must describe the specs
	// the runs actually execute (scenario defaults + file + -set).
	specs := make([]scenario.Spec, len(scs))
	for i, sc := range scs {
		if specs[i], err = scenario.Resolve(sc, overrides); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	sink, err := runner.NewSink(format, &buf)
	if err != nil {
		return nil, fmt.Errorf("midas-sim: %w", err)
	}
	if err := sink.Begin(listMeta(specs)); err != nil {
		return nil, err
	}
	for i, sc := range scs {
		// The engine splits the spec's parallelism budget between its
		// run pool and each run's inner topology sweep itself.
		res, err := scenario.Run(context.Background(), sc, specs[i])
		if err != nil {
			return nil, err
		}
		if err := sink.Result(res.RunnerResult()); err != nil {
			return nil, err
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resolveScenarios turns -scenario into the scenarios to run: "all" is
// the registry in registration order, a comma-separated list keeps its
// order, and each name resolves through scenario.Find. fromSpec is the
// spec's own "scenario" field: it names the scenario when list is
// empty, must agree with a single -scenario, and conflicts with a list.
func resolveScenarios(list, fromSpec string) ([]scenario.Scenario, error) {
	if list == "" {
		if fromSpec == "" {
			return nil, fmt.Errorf("midas-sim: no scenario named (use -scenario, or a spec file with a \"scenario\" field; -list shows all)")
		}
		sc, err := scenario.Find(fromSpec)
		if err != nil {
			return nil, err
		}
		return []scenario.Scenario{sc}, nil
	}
	names := strings.Split(list, ",")
	if list == "all" {
		names = scenario.Names()
	}
	scs := make([]scenario.Scenario, len(names))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("midas-sim: empty name in -scenario %q", list)
		}
		sc, err := scenario.Find(name)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	if fromSpec == "" {
		return scs, nil
	}
	// A spec that names a scenario other than -scenario is a conflict,
	// not something to silently override: the file's knob values were
	// tuned for the scenario it declares. For the same reason it cannot
	// apply to a list.
	if list == "all" || len(scs) > 1 {
		return nil, fmt.Errorf("midas-sim: -scenario %s runs a list, but the spec file names scenario %q (drop one)", list, fromSpec)
	}
	sc := scs[0]
	named, err := scenario.Find(fromSpec)
	if err != nil {
		return nil, fmt.Errorf("midas-sim: -scenario %s given, but the spec file names %q: %w", sc.Name(), fromSpec, err)
	}
	if named.Name() != sc.Name() {
		return nil, fmt.Errorf("midas-sim: -scenario %s conflicts with the spec file's scenario %s (drop one)", sc.Name(), named.Name())
	}
	return scs, nil
}

// listMeta is the sink meta for the resolved specs of a run. The meta
// conventions (effective parallelism, omitted zero fields) live on the
// spec itself, shared with midas-serve, so for one scenario the two
// tools' snapshots differ only in the tool name. For a list, a field
// keeps its value only when every spec agrees on it and is zeroed
// (omitted, where the meta omits zeros) otherwise, so the meta never
// claims a per-scenario value that some results did not use.
func listMeta(specs []scenario.Spec) runner.Meta {
	meta := specs[0].SinkMeta("midas-sim")
	for _, s := range specs[1:] {
		m := s.SinkMeta("midas-sim")
		if m.Seed != meta.Seed {
			meta.Seed = 0
		}
		if m.Topologies != meta.Topologies {
			meta.Topologies = 0
		}
		if m.Parallelism != meta.Parallelism {
			meta.Parallelism = 0
		}
		if m.SimTime != meta.SimTime {
			meta.SimTime = ""
		}
		if m.Replicates != meta.Replicates {
			meta.Replicates = 0
		}
	}
	return meta
}

// setters maps every -set key to its parser/assignment; the "unknown
// key" error derives its vocabulary from this table, so the two cannot
// drift apart. In the spec itself 0 means "inherit the scenario
// default", so count keys reject non-positive values here — a literal
// -set clients=0 must error, not silently run the default.
var setters = map[string]func(spec *scenario.Spec, key, val string) error{
	"scenario":    func(s *scenario.Spec, _, v string) error { s.Scenario = v; return nil },
	"clients":     func(s *scenario.Spec, k, v string) error { return setCount(&s.Clients, k, v) },
	"antennas":    func(s *scenario.Spec, k, v string) error { return setCount(&s.Antennas, k, v) },
	"topologies":  func(s *scenario.Spec, k, v string) error { return setCount(&s.Topologies, k, v) },
	"replicates":  func(s *scenario.Spec, k, v string) error { return setCount(&s.Replicates, k, v) },
	"parallelism": func(s *scenario.Spec, k, v string) error { return setInt(&s.Parallelism, k, v) },
	"size": func(s *scenario.Spec, k, v string) error {
		if err := setCount(&s.Antennas, k, v); err != nil {
			return err
		}
		s.Clients = s.Antennas
		return nil
	},
	"seed": func(s *scenario.Spec, k, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("midas-sim: -set %s wants an integer (got %q)", k, v)
		}
		if n == 0 {
			// 0 means "inherit the scenario default" in the spec, so an
			// explicit 0 would be silently replaced; refuse it.
			return fmt.Errorf("midas-sim: -set seed=0 cannot be expressed (0 means \"inherit\"); pick a nonzero seed")
		}
		s.Seed = n
		return nil
	},
	"simtime": func(s *scenario.Spec, k, v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("midas-sim: -set %s wants a duration like 300ms (got %q)", k, v)
		}
		s.SimTime = scenario.Duration(d)
		return nil
	},
	"aps": func(s *scenario.Spec, k, v string) error {
		n, err := parseCount(k, v)
		if err != nil {
			return err
		}
		ensureVenue(s).APs = n
		return nil
	},
	"width":           func(s *scenario.Spec, k, v string) error { return setFloat(&ensureVenue(s).Width, k, v) },
	"height":          func(s *scenario.Spec, k, v string) error { return setFloat(&ensureVenue(s).Height, k, v) },
	"coverage_radius": func(s *scenario.Spec, k, v string) error { return setFloat(&ensureVenue(s).CoverageRadius, k, v) },
	"sigma_db":        func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).SigmaDB, k, v) },
	"cas_correlation": func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).CASCorrelation, k, v) },
	"wall_db":         func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).WallDB, k, v) },
	"max_wall_db":     func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).MaxWallDB, k, v) },
	"room_w":          func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).RoomW, k, v) },
	"room_h":          func(s *scenario.Spec, k, v string) error { return setShadow(&ensureShadow(s).RoomH, k, v) },
}

func parseCount(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("midas-sim: -set %s wants an integer (got %q)", key, val)
	}
	if n < 1 {
		return 0, fmt.Errorf("midas-sim: -set %s must be >= 1 (got %d)", key, n)
	}
	return n, nil
}

func setCount(dst *int, key, val string) error {
	n, err := parseCount(key, val)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func setInt(dst *int, key, val string) error {
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("midas-sim: -set %s wants an integer (got %q)", key, val)
	}
	*dst = n
	return nil
}

func setFloat(dst *float64, key, val string) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("midas-sim: -set %s wants a number (got %q)", key, val)
	}
	*dst = f
	return nil
}

func setShadow(dst **float64, key, val string) error {
	var f float64
	if err := setFloat(&f, key, val); err != nil {
		return err
	}
	*dst = &f
	return nil
}

func ensureVenue(s *scenario.Spec) *scenario.Venue {
	if s.Venue == nil {
		s.Venue = &scenario.Venue{}
	}
	return s.Venue
}

func ensureShadow(s *scenario.Spec) *scenario.Shadowing {
	if s.Shadowing == nil {
		s.Shadowing = &scenario.Shadowing{}
	}
	return s.Shadowing
}

// applySet applies one -set key=value override. A comma-separated value
// declares a sweep over the listed values.
func applySet(spec *scenario.Spec, kv string) error {
	key, val, ok := strings.Cut(kv, "=")
	if !ok || key == "" || val == "" {
		return fmt.Errorf("midas-sim: bad -set %q (want key=value)", kv)
	}
	if strings.Contains(val, ",") {
		vals := []float64{}
		for _, part := range strings.Split(val, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("midas-sim: bad -set sweep value %q in %q", part, kv)
			}
			vals = append(vals, v)
		}
		if spec.Sweep == nil {
			spec.Sweep = map[string][]float64{}
		}
		spec.Sweep[key] = vals
		return nil
	}
	set, ok := setters[key]
	if !ok {
		known := make([]string, 0, len(setters))
		for k := range setters {
			known = append(known, k)
		}
		sort.Strings(known)
		return fmt.Errorf("midas-sim: unknown -set key %q (known: %s)", key, strings.Join(known, ", "))
	}
	return set(spec, key, val)
}
