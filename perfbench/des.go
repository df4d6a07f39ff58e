package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The des-fig15 workload: Fig. 15 specs (3 APs × 4 antennas × 4
// clients, CAS and MIDAS arms) run back to back in process. Every
// engine layer works here and no serving layer runs, so a DES or
// medium change must show here and a serving change must not.
const (
	desTopologies = 16
	desSimTime    = 200 * time.Millisecond
	// desRepeats is how many times in a row each seed runs, so repeat
	// results can be compared byte for byte.
	desRepeats    = 2
	setupProbeArg = "setup-probe"
)

func desSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Scenario:    "fig15-end-to-end",
		Topologies:  desTopologies,
		Seed:        seed,
		SimTime:     scenario.Duration(desSimTime),
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func runDES(cfg config) (*outcome, error) {
	o := newOutcome()
	r := cfg.rng(1)
	var seeds []int64
	seed := func(i int) int64 {
		for len(seeds) <= i {
			seeds = append(seeds, 1+r.Int64N(1<<40))
		}
		return seeds[i]
	}
	sc, _, err := resolve(desSpec(1))
	if err != nil {
		return nil, err
	}
	// runOnce runs one spec. The run's wall time, allocations and peak
	// RSS cover RunResolved; its makespan also covers encoding the
	// result.
	type desRun struct {
		body           []byte
		wall, makespan time.Duration
		allocs         uint64
		peakRSS        float64
		shards         int
	}
	runOnce := func(s int64, par int) (desRun, error) {
		spec := desSpec(s)
		spec.Parallelism = par
		spec, err := scenario.Resolve(sc, spec)
		if err != nil {
			return desRun{}, err
		}
		if err := resetPeakRSS(); err != nil {
			return desRun{}, err
		}
		a, t := heapAllocs(), time.Now()
		res, err := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
		r := desRun{wall: time.Since(t), allocs: heapAllocs() - a, shards: len(spec.Shards())}
		if err != nil {
			return r, err
		}
		if r.peakRSS, err = vmHWM("/proc/self/status"); err != nil {
			return r, err
		}
		r.body, err = res.MarshalIndent()
		r.makespan = time.Since(t)
		return r, err
	}

	// Reference: the first seed at parallelism 1. It also warms the
	// process up before the window.
	ref, err := runOnce(seed(0), 1)
	if err != nil {
		return nil, err
	}

	var prof *os.File
	if cfg.trace {
		if prof, err = startProfile(cfg); err != nil {
			return nil, err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	first := map[int64][]byte{}
	var walls, makespans, setups, peaks []float64
	var allocs uint64
	var launching time.Duration
	shards := 0
	start := time.Now()
	for deadline, i := start.Add(cfg.window), 0; time.Now().Before(deadline); i++ {
		if i%desRepeats == 0 {
			// One set-up sample per seed, so that set-up time spans
			// the same host phases as the runs. The launches are left
			// out of the throughput window.
			t := time.Now()
			d, err := setupLaunch(exe)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			launching += time.Since(t)
		}
		s := seed(i / desRepeats)
		o.attempted++
		r, err := runOnce(s, runtime.GOMAXPROCS(0))
		switch {
		case err != nil:
			o.fail("fig15 seed %d: %v", s, err)
			continue
		case first[s] == nil:
			first[s] = r.body
		case !bytes.Equal(first[s], r.body):
			o.fail("fig15 seed %d: repeat result differs from the first run", s)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		makespans = append(makespans, r.makespan.Seconds())
		peaks = append(peaks, r.peakRSS)
		allocs += r.allocs
		shards += r.shards
	}
	window := time.Since(start) - launching
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	if !bytes.Equal(first[seed(0)], ref.body) {
		o.fail("fig15 seed %d: result at parallelism %d differs from parallelism 1", seed(0), runtime.GOMAXPROCS(0))
	}
	// The median run's peak: the peak over the whole process is one
	// extreme sample and moves with GC timing.
	rss, err := median(peaks)
	if err != nil {
		return nil, err
	}
	p50, err := median(walls)
	if err != nil {
		return nil, err
	}
	setup, err := median(setups)
	if err != nil {
		return nil, err
	}
	span, err := median(makespans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: des-fig15: %d seeds; %s\n", len(first), describe("run", "s", walls))
	o.e2e["setup_s"] = unitValue{setup, "s"}
	o.e2e["peak_rss_mb"] = unitValue{rss, "MiB"}
	o.e2e["run_p50_s"] = unitValue{p50, "s"}
	o.e2e["allocs_per_run"] = unitValue{float64(allocs) / float64(len(walls)), "count"}
	o.e2e["makespan_p50_s"] = unitValue{span, "s"}
	o.e2e["shards_per_s"] = unitValue{float64(shards) / window.Seconds(), "1/s"}
	if !cfg.trace {
		return o, nil
	}
	o.layer["traced.run_p50_s"] = unitValue{p50, "s"}
	if err := profileLayers(prof.Name(), o); err != nil {
		return nil, err
	}
	o.attempted++
	if err := replicaLayers(seed(0), ref.body, o); err != nil {
		o.fail("fig15 replica: %v", err)
	}
	probeLayers(o)
	return o, nil
}

// setupLaunch is one set-up sample: the time from launching a fresh
// process to the end of its first Fig. 15 run, covering process
// start, package init, registry and lazy engine set-up.
func setupLaunch(exe string) (time.Duration, error) {
	cmd := exec.Command(exe, setupProbeArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(t)
	if err := cmd.Wait(); err != nil || rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe: %v %v %q", err, rerr, line)
	}
	return elapsed, nil
}

// desSetupProbe is the child side of setupLaunch: a warm-up Fig. 15 run
// at 2 topologies, then "ready".
func desSetupProbe() error {
	spec := desSpec(1)
	spec.Topologies = 2
	sc, spec, err := resolve(spec)
	if err != nil {
		return err
	}
	if _, err := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{}); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

func startProfile(cfg config) (*os.File, error) {
	if err := os.MkdirAll(cfg.artifactDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.artifactDir, fmt.Sprintf("des-fig15-seed%d.cpu.pprof", cfg.seed)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// profileLayers summarizes the window's CPU profile: self time per
// package into a text artifact, and two cumulative shares as
// per-layer metrics.
func profileLayers(path string, o *outcome) error {
	p, err := readProfile(path)
	if err != nil {
		return err
	}
	summary := p.packageSummary()
	if err := os.WriteFile(path+".summary.txt", []byte(summary), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: CPU profile %s\n%s", path, summary)
	o.layer["cpu.linkpower_cum_pct"] = unitValue{100 * p.cumShare(isLinkPower), "%"}
	o.layer["cpu.event_heap_cum_pct"] = unitValue{100 * p.cumShare(isEventHeap), "%"}
	return nil
}

// netStat is one network's per-layer cost in the replica.
type netStat struct {
	place, setup, run time.Duration
	events, txops     int
	runAllocs         uint64
}

// replicaLayers reruns sim.Fig15EndToEnd's per-topology body from
// public calls, at parallelism 1 so allocation counts belong to one
// network at a time, times each layer, and checks that the
// capacities match the scenario's result bit for bit.
func replicaLayers(seed int64, want []byte, o *outcome) error {
	spec := desSpec(seed)
	p := channel.Default()
	cfg := func(m topology.Mode) topology.Config {
		c := topology.DefaultConfig(m)
		c.ClientsPerAP, c.AntennasPerAP = 4, 4
		return c
	}
	type topoOut struct {
		cas, midas float64
		nets       [2]netStat
	}
	res, err := runner.Sweep(context.Background(), spec.Topologies, seed, "fig15", runner.Options{Parallelism: 1},
		func(_ context.Context, _ int, src *rng.Source) (topoOut, error) {
			var out topoOut
			t := time.Now()
			depC := topology.ThreeAPTestbed(cfg(topology.CAS), src.Split("topo"))
			out.nets[0].place = time.Since(t)
			t = time.Now()
			depM := topology.ThreeAPTestbed(cfg(topology.DAS), src.Split("topo"))
			out.nets[1].place = time.Since(t)
			t = time.Now()
			runC := sim.OverhearingSource(depC, p, src.Split("runC"), 64)
			out.nets[0].setup = time.Since(t)
			t = time.Now()
			runM := sim.OverhearingSource(depM, p, src.Split("runM"), 64)
			out.nets[1].setup = time.Since(t)
			out.cas = replicaRun(depC, p, sim.KindCAS, runC, &out.nets[0])
			out.midas = replicaRun(depM, p, sim.KindMIDAS, runM, &out.nets[1])
			return out, nil
		})
	if err != nil {
		return err
	}
	var cas, midas []float64
	var total netStat
	for _, r := range res {
		cas, midas = append(cas, r.cas), append(midas, r.midas)
		for _, n := range r.nets {
			total.place += n.place
			total.setup += n.setup
			total.run += n.run
			total.events += n.events
			total.txops += n.txops
			total.runAllocs += n.runAllocs
		}
	}
	nets := float64(2 * len(res))
	o.layer["topology.place_ms"] = unitValue{ms(total.place) / nets, "ms"}
	o.layer["channel.setup_ms"] = unitValue{ms(total.setup) / nets, "ms"}
	o.layer["mac.run_ms"] = unitValue{ms(total.run) / nets, "ms"}
	o.layer["mac.events"] = unitValue{float64(total.events), "count"}
	o.layer["mac.ns_per_event"] = unitValue{float64(total.run) / float64(total.events), "ns"}
	o.layer["mac.allocs_per_event"] = unitValue{float64(total.runAllocs) / float64(total.events), "count"}
	o.layer["sim.txops"] = unitValue{float64(total.txops), "count"}
	o.layer["sim.allocs_per_txop"] = unitValue{float64(total.runAllocs) / float64(total.txops), "count"}

	var fig15 scenario.Result
	if err := json.Unmarshal(want, &fig15); err != nil {
		return err
	}
	for _, arm := range []struct {
		label string
		got   []float64
	}{{"CAS network capacity", cas}, {"MIDAS network capacity", midas}} {
		if err := sameSeries(fig15, arm.label, arm.got); err != nil {
			return err
		}
	}
	return nil
}

// replicaRun is sim's runOne with each layer timed: client
// association and network build (channel set-up), then the stations'
// start and the event loop (MAC run).
func replicaRun(dep *topology.Deployment, p channel.Params, kind sim.Kind, src *rng.Source, st *netStat) float64 {
	t := time.Now()
	sim.EnsureAssociated(dep, p, src.Split("model"))
	net := sim.NewNetwork(dep, p, sim.DefaultStationOpts(kind), src)
	st.setup += time.Since(t)
	a := heapAllocs()
	t = time.Now()
	for _, s := range net.Stations {
		s.Start()
	}
	st.events = net.Eng.Run(net.Eng.Now() + desSimTime)
	st.run = time.Since(t)
	st.runAllocs = heapAllocs() - a
	st.txops = net.TotalTXOPs()
	return net.NetworkCapacity()
}

// sameSeries checks that got holds exactly the values of the scenario
// result's series label. Fig15EndToEnd reports each arm as a sorted
// sample, so the per-topology values are compared as sorted lists, bit
// for bit.
func sameSeries(res scenario.Result, label string, got []float64) error {
	for _, s := range res.Series {
		if s.Label != label {
			continue
		}
		g := append([]float64(nil), got...)
		sort.Float64s(g)
		if len(g) != len(s.Values) {
			return fmt.Errorf("%s: replica has %d topologies, scenario %d", label, len(g), len(s.Values))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(s.Values[i]) {
				return fmt.Errorf("%s: replica value %d is %v, scenario %v", label, i, g[i], s.Values[i])
			}
		}
		return nil
	}
	return fmt.Errorf("scenario result has no series %q", label)
}

// probeLayers times two single calls: splitting a fresh rng stream
// (every task and shard pays it) and the 4×4 power-balanced precoder
// solve, which also serves as a reference kernel for the host.
func probeLayers(o *outcome) {
	const n = 4000
	var sink int64
	t := time.Now()
	for i := 0; i < n; i++ {
		sink += rng.New(int64(i)).Split("probe").Seed()
	}
	o.layer["rng.split_ns"] = unitValue{float64(time.Since(t)) / n, "ns"}

	prob := bench.BenchProblem4x4()
	s := precoding.NewSolver()
	if _, _, err := s.PowerBalanced(prob); err != nil {
		panic(err) // the committed benchmark problem always solves
	}
	t = time.Now()
	for i := 0; i < n; i++ {
		_, it, _ := s.PowerBalanced(prob)
		sink += int64(it)
	}
	o.layer["precoding.solve_ns"] = unitValue{float64(time.Since(t)) / n, "ns"}
	runtime.KeepAlive(sink)
}
