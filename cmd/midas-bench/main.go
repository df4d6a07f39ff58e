// Command midas-bench regenerates every table and figure of the MIDAS
// paper's evaluation (§5). Experiments are resolved from the
// internal/scenario registry — the same declarative scenarios
// midas-sim -scenario runs — and executed in paper order. Each
// scenario's topology sweep runs on the internal/runner worker pool
// (-parallel), and results flow through a pluggable sink:
// human-readable text CDF tables (default), a JSON snapshot for
// machine-readable perf/result tracking, or flat CSV rows. Results are
// bit-identical at any -parallel value for a given -seed. -topos,
// -seed and -simtime override the scenarios' own defaults only when
// explicitly passed. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// Usage:
//
//	midas-bench [-figure all|3|7|8|9|10|11|12|13|14|15|16|ht|decomp|ablations|<scenario-prefix>]
//	            [-topos N] [-seed S] [-simtime D] [-points N] [-replicates N]
//	            [-parallel N] [-format text|json|csv] [-out FILE] [-progress]
//
// -replicates N re-runs every selected experiment over N split seeds
// and reports {mean, stddev, ci95, n} summaries per metric; the
// snapshot meta records the replicate count.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var (
	figure     = flag.String("figure", "all", "which figure to regenerate (comma-separated)")
	topos      = flag.Int("topos", 60, "topologies per experiment")
	seed       = flag.Int64("seed", 2014, "root random seed")
	simTime    = flag.Duration("simtime", 300*time.Millisecond, "simulated airtime per end-to-end run")
	points     = flag.Int("points", 20, "rows per printed CDF (text format)")
	parallel   = flag.Int("parallel", 0, "topology tasks evaluated concurrently (0 = GOMAXPROCS)")
	replicates = flag.Int("replicates", 1,
		"replicate every selected experiment over split seeds and report {mean, stddev, ci95, n} summaries (recorded in the snapshot meta)")
	format   = flag.String("format", "text", "output format: text, json or csv")
	outPath  = flag.String("out", "", "write results to this file instead of stdout")
	progress = flag.Bool("progress", false, "report per-task timing on stderr")
	kernels  = flag.Bool("kernels", false,
		"measure the linear-algebra kernel micro-benchmarks (before/after pairs) plus reduced-scale figure benchmarks and emit a JSON snapshot; this is what `make bench-snapshot` commits as BENCH_PR2.json")
	rounds = flag.Int("rounds", 3, "alternating measurement rounds per -kernels benchmark")
)

// runKernels writes the before/after kernel snapshot (see internal/bench).
func runKernels() {
	snap := bench.KernelSnapshot(*rounds, *topos, *seed, *parallel)
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outPath == "" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(*outPath, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, k := range snap.Kernels {
		fmt.Fprintf(os.Stderr, "%-18s before %8.0f ns/op %3d allocs  after %8.0f ns/op %3d allocs  %.2fx\n",
			k.Name, k.Before.NsOp, k.Before.AllocsOp, k.After.NsOp, k.After.AllocsOp, k.Speedup)
	}
}

func main() {
	flag.Parse()
	if *topos < 1 {
		fmt.Fprintf(os.Stderr, "-topos must be >= 1 (got %d)\n", *topos)
		os.Exit(2)
	}
	if *rounds < 1 {
		fmt.Fprintf(os.Stderr, "-rounds must be >= 1 (got %d)\n", *rounds)
		os.Exit(2)
	}
	if *replicates < 1 {
		// 0 would merge as "inherit the scenario default" — refuse the
		// inexpressible value instead of silently running unreplicated.
		fmt.Fprintf(os.Stderr, "-replicates must be >= 1 (got %d)\n", *replicates)
		os.Exit(2)
	}
	if *kernels {
		// Kernel measurements are single-threaded on purpose: the
		// snapshot tracks per-core speed; only the figure benchmarks
		// take -parallel.
		runKernels()
		return
	}
	if *progress {
		sim.OnProgress = func(label string, p runner.Progress) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d (task %d took %v)\n",
				label, p.Completed, p.Total, p.Index, p.Elapsed.Round(time.Millisecond))
		}
	}

	// Scenario defaults carry the paper's per-experiment scales; shared
	// flags override them only when explicitly passed, so e.g. the
	// reduced default topology count of fig16 survives a plain run. The
	// same explicit-only values feed the snapshot metadata: a flag that
	// was not passed is omitted there rather than recorded as a value
	// the per-scenario defaults may not have used.
	var overrides scenario.Spec
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "topos":
			overrides.Topologies = *topos
		case "seed":
			if *seed == 0 {
				// Spec merging treats 0 as "inherit the scenario
				// default", so an explicit 0 cannot be expressed.
				fmt.Fprintln(os.Stderr, "-seed 0 cannot be used (0 means \"inherit\"); pick a nonzero seed")
				os.Exit(2)
			}
			overrides.Seed = *seed
		case "simtime":
			overrides.SimTime = scenario.Duration(*simTime)
		case "parallel":
			overrides.Parallelism = *parallel
		case "replicates":
			overrides.Replicates = *replicates
		}
	})

	// Resolve the experiment selection before touching the output file,
	// so a typo'd -figure cannot truncate an existing snapshot.
	want := strings.Split(*figure, ",")
	var selectedExps []string
	for _, name := range scenario.Names() {
		if selected(want, name) {
			selectedExps = append(selectedExps, name)
		}
	}
	if len(selectedExps) == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		os.Exit(2)
	}

	// With -out, results are buffered and the file is written only after
	// every experiment and the sink have succeeded, so no failure mode
	// (bad flags, a mid-run experiment error) can truncate an existing
	// snapshot.
	var buf bytes.Buffer
	var w io.Writer = os.Stdout
	if *outPath != "" {
		w = &buf
	}
	sink, err := runner.NewSink(*format, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ts, ok := sink.(*runner.TextSink); ok {
		ts.Points = *points
	}

	effParallel := *parallel
	if effParallel <= 0 {
		effParallel = runtime.GOMAXPROCS(0)
	}
	// Seed: every registered scenario defaults to the flag's own default
	// (2014), so the recorded seed is accurate whether or not -seed was
	// passed. Topologies/SimTime are recorded only when explicitly set —
	// at defaults they vary per scenario (fig16 runs 20, fig12 30, …)
	// and a single number here would misdescribe most results.
	// Replicates follows the same explicit-only rule: recorded when the
	// flag was passed (scenarios with replicated defaults, like
	// fig15-replicated, describe themselves in their own results).
	meta := runner.Meta{
		Tool:        "midas-bench",
		Seed:        *seed,
		Topologies:  overrides.Topologies,
		Parallelism: effParallel,
		SimTime:     overridesSimTime(overrides),
		Replicates:  overrides.Replicates,
	}
	if err := sink.Begin(meta); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for _, name := range selectedExps {
		sc, _ := scenario.Get(name)
		spec, err := scenario.Resolve(sc, overrides)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		// Swept scenarios fan out in the engine's run pool; the engine
		// splits the spec's -parallel budget between that pool and each
		// run's inner sweep itself (carried in the task specs).
		res, err := runner.Timed(name, func(r *runner.Result) error {
			out, err := scenario.Run(context.Background(), sc, spec)
			if err != nil {
				return err
			}
			rr := out.RunnerResult()
			r.Series, r.Metrics, r.Summaries, r.Text = rr.Series, rr.Metrics, rr.Summaries, rr.Text
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if err := sink.Result(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// overridesSimTime renders the explicitly-set -simtime for the meta
// block, or "" when the scenarios' own defaults apply.
func overridesSimTime(o scenario.Spec) string {
	if o.SimTime == 0 {
		return ""
	}
	return time.Duration(o.SimTime).String()
}

// selected reports whether a scenario name matches one of the -figure
// tokens: "all", a figure number ("12" matches "fig12-spatial-reuse"),
// the "ablations" group, or any scenario-name prefix ("ht", "decomp",
// "dense", "client-churn", or an exact name). A figure number or the
// bare stem it shares with its base figure selects only the paper's own
// figure — beyond-paper variants like fig15-replicated run under "all"
// or when their distinguishing suffix is (partially) named
// ("-figure fig15-rep"), never silently alongside the figure they
// extend.
func selected(want []string, name string) bool {
	for _, w := range want {
		if w == "" {
			continue
		}
		if w == "all" || prefixSelects(name, "fig"+w+"-") ||
			(w == "ablations" && strings.HasPrefix(name, "ablation-")) ||
			prefixSelects(name, w) {
			return true
		}
	}
	return false
}

// prefixSelects is prefix matching with one carve-out: a replicated
// variant is chosen only by a prefix that reaches past the stem it
// shares with its base figure ("fig15-r" does, "fig15" and "fig15-"
// do not), so asking for a paper figure never silently adds its
// 5-replicate variant.
func prefixSelects(name, w string) bool {
	if !strings.HasPrefix(name, w) {
		return false
	}
	if i := strings.LastIndex(name, "-replicated"); i >= 0 {
		return len(w) > i+1
	}
	return true
}
