// Command perfbench is the repository's layered benchmark. It drives
// two workloads, each through the surface its users touch:
//
//   - des-fig15: repeated Fig. 15 specs through scenario.RunResolved,
//     in process;
//   - dispatch-sweep: closed-loop 64-point sweeps through a real
//     midas-serve coordinator and two midas-worker processes.
//
// It prints the operations attempted, failed and retried on one line,
// then one JSON object as the last line of standard output: the
// workload's end-to-end metrics, or with -trace 1 the per-layer
// metrics of every workload's layers. Run it through run.sh, which builds it and the binaries
// under test from the checkout first:
//
//	bash perfbench/run.sh --workload dispatch-sweep --seed 1 --seconds 20 --trace 0
//
// README.md lists every metric and the end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// binDir holds midas-serve, midas-worker and this binary.
	binDir string
	// workDir is this run's scratch space (store directories, server
	// logs); removed on exit.
	workDir string
	// artifactDir keeps outputs worth looking at after the run (the
	// traced des-fig15 CPU profile and its summary).
	artifactDir string
}

// rng returns one of the workload's input streams; every input a run
// builds derives from the seed through these, so one seed always
// yields the same inputs.
func (c config) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(uint64(c.seed), stream)) }

// unitValue is one reported metric.
type unitValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed, retried int
	e2e                        map[string]unitValue
	layer                      map[string]unitValue
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]unitValue{}, layer: map[string]unitValue{}}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
}

type workload func(cfg config) (*outcome, error)

// companionWindow is how long a traced run also runs each other
// workload, traced, so that every traced run reports every per-layer
// metric: its own layers over the full window, the others' over this.
const companionWindow = 5 * time.Second

var workloads = map[string]workload{
	"des-fig15":      runDES,
	"dispatch-sweep": runDispatchSweep,
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == setupProbeArg {
		if err := desSetupProbe(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench setup probe:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "des-fig15 or dispatch-sweep")
	seed := flag.Int64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := mainErr(run, config{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(run workload, cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cfg.binDir = filepath.Dir(exe)
	build := filepath.Dir(cfg.binDir)
	cfg.artifactDir = filepath.Join(build, "artifacts")
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return err
	}
	if cfg.workDir, err = os.MkdirTemp(filepath.Join(build, "work"), cfg.workload+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)

	o, err := run(cfg)
	if err != nil {
		return err
	}
	metrics := o.e2e
	if cfg.trace {
		if err := addCompanions(cfg, o); err != nil {
			return err
		}
		metrics = o.layer
	}
	// The result object has a fixed set of keys, so retries (503s
	// resubmitted) are reported on the line before it.
	fmt.Printf("perfbench: %s seed %d: attempted %d, failed %d, retried %d\n",
		cfg.workload, cfg.seed, o.attempted, o.failed, o.retried)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]unitValue `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// addCompanions runs every workload other than cfg's for
// companionWindow, traced, and adds its per-layer metrics and its
// operations to o.
func addCompanions(cfg config, o *outcome) error {
	var names []string
	for name := range workloads {
		if name != cfg.workload {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c := cfg
		c.workload, c.window = name, companionWindow
		c.workDir = filepath.Join(cfg.workDir, name)
		if err := os.Mkdir(c.workDir, 0o755); err != nil {
			return err
		}
		co, err := workloads[name](c)
		if err != nil {
			return fmt.Errorf("%s companion: %w", name, err)
		}
		for k, v := range co.layer {
			if _, dup := o.layer[k]; dup {
				return fmt.Errorf("%s companion: per-layer metric %s reported twice", name, k)
			}
			o.layer[k] = v
		}
		o.attempted += co.attempted
		o.failed += co.failed
		o.retried += co.retried
	}
	return nil
}
