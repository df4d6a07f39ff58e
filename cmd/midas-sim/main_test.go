package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed with MIDAS_SIM_RUN_MAIN set, so a test can drive the real
// flag surface and exit code without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("MIDAS_SIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSweptCountOutOfRangeExits: a swept count too large for a float64
// to hold exactly (here 1e300, which int() would wrap to a garbage
// count) is refused before anything runs: exit 1, the key named on
// stderr, nothing on stdout.
func TestSweptCountOutOfRangeExits(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-scenario", "fig15", "-set", "topologies=1",
		"-set", "simtime=10ms", "-set", "clients=1e300,2")
	cmd.Env = append(os.Environ(), "MIDAS_SIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("midas-sim exited with %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `sweep "clients" value 1e+300 is out of range`) {
		t.Errorf("stderr %q does not name the swept key", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run printed %d bytes", stdout.Len())
	}
}

// TestApplySet pins -set, midas-sim's only override surface: every
// key spells one spec field, count keys and the seed refuse the 0 that
// the spec reads as "inherit", and a comma-separated value declares a
// sweep instead of setting the field.
func TestApplySet(t *testing.T) {
	five := 5.0
	for _, tc := range []struct {
		name    string
		kvs     []string
		want    scenario.Spec
		wantErr []string // substrings of the error; nil = must succeed
	}{
		{name: "size sets clients and antennas", kvs: []string{"size=3"},
			want: scenario.Spec{Clients: 3, Antennas: 3}},
		{name: "comma value declares a sweep", kvs: []string{"clients=2,4, 8"},
			want: scenario.Spec{Sweep: map[string][]float64{"clients": {2, 4, 8}}}},
		{name: "sweep keeps scalar overrides", kvs: []string{"topologies=4", "seed=3,4"},
			want: scenario.Spec{Topologies: 4, Sweep: map[string][]float64{"seed": {3, 4}}}},
		{name: "scalar fields", kvs: []string{"seed=7", "simtime=40ms", "replicates=3", "parallelism=0", "aps=2", "sigma_db=5"},
			want: scenario.Spec{Seed: 7, SimTime: scenario.Duration(40 * time.Millisecond), Replicates: 3,
				Venue: &scenario.Venue{APs: 2}, Shadowing: &scenario.Shadowing{SigmaDB: &five}}},
		{name: "seed=0 refused", kvs: []string{"seed=0"}, wantErr: []string{"seed=0", "inherit"}},
		{name: "clients=0 refused", kvs: []string{"clients=0"}, wantErr: []string{"clients", ">= 1"}},
		{name: "size=0 refused", kvs: []string{"size=0"}, wantErr: []string{"size", ">= 1"}},
		{name: "unknown key lists the valid keys", kvs: []string{"bogus=1"},
			wantErr: []string{`unknown -set key "bogus"`, "antennas, aps,", "seed", "size", "topologies"}},
		{name: "removed alias topos", kvs: []string{"topos=4"}, wantErr: []string{`unknown -set key "topos"`}},
		{name: "removed alias runs", kvs: []string{"runs=2"}, wantErr: []string{`unknown -set key "runs"`}},
		{name: "removed alias parallel", kvs: []string{"parallel=2"}, wantErr: []string{`unknown -set key "parallel"`}},
		{name: "missing value", kvs: []string{"clients="}, wantErr: []string{"want key=value"}},
		{name: "bad sweep value", kvs: []string{"clients=2,x"}, wantErr: []string{"bad -set sweep value"}},
		{name: "bad duration", kvs: []string{"simtime=40"}, wantErr: []string{"duration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got scenario.Spec
			var err error
			for _, kv := range tc.kvs {
				if err = applySet(&got, kv); err != nil {
					break
				}
			}
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("applySet(%q) = nil error, want one mentioning %q", tc.kvs, tc.wantErr)
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q does not mention %q", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("applySet(%q): %v", tc.kvs, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("applySet(%q) = %+v, want %+v", tc.kvs, got, tc.want)
			}
		})
	}
}

func scenarioNames(scs []scenario.Scenario) []string {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name()
	}
	return names
}

// TestResolveScenarios pins the list forms of -scenario: all is the
// registry in registration order, a comma list keeps the order given,
// and a spec file's scenario may name a single -scenario's choice but
// never a list's.
func TestResolveScenarios(t *testing.T) {
	all, err := resolveScenarios("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scenarioNames(all), scenario.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("all = %v, want registry order %v", got, want)
	}

	list, err := resolveScenarios("fig15,fig3,ht", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scenarioNames(list), []string{"fig15-end-to-end", "fig3-naive-scaling-drop", "ht-hidden-terminals"}; !reflect.DeepEqual(got, want) {
		t.Errorf("comma list = %v, want %v", got, want)
	}

	one, err := resolveScenarios("fig12", "fig12-spatial-reuse")
	if err != nil {
		t.Fatalf("a spec naming the -scenario choice must be accepted: %v", err)
	}
	if got := scenarioNames(one); !reflect.DeepEqual(got, []string{"fig12-spatial-reuse"}) {
		t.Errorf("single = %v", got)
	}
	fromSpec, err := resolveScenarios("", "fig14")
	if err != nil {
		t.Fatal(err)
	}
	if got := scenarioNames(fromSpec); !reflect.DeepEqual(got, []string{"fig14-packet-tagging"}) {
		t.Errorf("spec-named = %v", got)
	}

	for _, tc := range []struct {
		name, list, fromSpec string
		wantErr              []string
	}{
		{"unknown name in a list", "fig3,nope,fig12", "", []string{`unknown scenario "nope"`}},
		{"ambiguous name in a list", "fig3,fig1", "", []string{`ambiguous scenario "fig1"`}},
		{"empty name in a list", "fig3,", "", []string{"empty name", `"fig3,"`}},
		{"no scenario at all", "", "", []string{"no scenario named"}},
		{"list plus a spec scenario", "fig3,fig12", "fig3", []string{"runs a list", `"fig3"`}},
		{"all plus a spec scenario", "all", "fig12", []string{"runs a list", `"fig12"`}},
		{"single conflicts with the spec", "fig3", "fig12", []string{"conflicts", "fig12-spatial-reuse"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scs, err := resolveScenarios(tc.list, tc.fromSpec)
			if err == nil {
				t.Fatalf("resolveScenarios(%q, %q) = %v, want an error", tc.list, tc.fromSpec, scenarioNames(scs))
			}
			for _, sub := range tc.wantErr {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not mention %q", err, sub)
				}
			}
		})
	}
}

// probe is a registered scenario that counts its runs, so a test can
// tell whether render ran anything.
type probe struct{ runs atomic.Int32 }

func (p *probe) Name() string { return "test-probe" }
func (p *probe) DefaultSpec() scenario.Spec {
	return scenario.Spec{Topologies: 1, Seed: 1, Antennas: 1, Clients: 1, Replicates: 1}
}
func (p *probe) Run(scenario.Spec, *rng.Source) (scenario.Result, error) {
	p.runs.Add(1)
	return scenario.Result{Scenario: p.Name()}, nil
}

var theProbe = &probe{}

func init() { scenario.Register(theProbe) }

// TestRenderRejectsBeforeRunning checks that a bad name anywhere in a
// list, or a bad format, fails the whole run before any scenario
// executes.
func TestRenderRejectsBeforeRunning(t *testing.T) {
	before := theProbe.runs.Load()
	out, err := render("test-probe,nope", scenario.Spec{}, "json")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("render = %v, want an error naming \"nope\"", err)
	}
	if len(out) != 0 {
		t.Fatalf("render wrote %d bytes before failing", len(out))
	}
	if _, err := render("test-probe", scenario.Spec{}, "yaml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("render with a bad format = %v, want an unknown-format error", err)
	}
	if n := theProbe.runs.Load() - before; n != 0 {
		t.Fatalf("a rejected render ran the probe %d times", n)
	}
	if _, err := render("test-probe", scenario.Spec{}, "json"); err != nil {
		t.Fatal(err)
	}
	if n := theProbe.runs.Load() - before; n != 1 {
		t.Fatalf("a good render ran the probe %d times, want 1", n)
	}
}

// TestRenderOneScenarioMatchesDirectRun pins a one-name run to the
// single-scenario rendering midas-sim and midas-serve share: resolve,
// run, and render the result under the spec's own sink meta. One PHY
// and one DES scenario, in json.
func TestRenderOneScenarioMatchesDirectRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		overrides scenario.Spec
	}{
		{"fig3", scenario.Spec{Topologies: 3}},
		{"fig15", scenario.Spec{Topologies: 2, SimTime: scenario.Duration(20 * time.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := render(tc.name, tc.overrides, "json")
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Find(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenario.Resolve(sc, tc.overrides)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(context.Background(), sc, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runner.RenderJSON(spec.SinkMeta("midas-sim"), res.RunnerResult())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("one-name run differs from the direct rendering:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRenderList runs a two-scenario list into one sink: both results
// in the order given, and a meta that keeps the shared topology count.
func TestRenderList(t *testing.T) {
	out, err := render("fig12,fig3", scenario.Spec{Topologies: 2}, "json")
	if err != nil {
		t.Fatal(err)
	}
	var snap runner.Snapshot
	if err := json.Unmarshal(out, &snap); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range snap.Results {
		names = append(names, r.Name)
	}
	if want := []string{"fig12-spatial-reuse", "fig3-naive-scaling-drop"}; !reflect.DeepEqual(names, want) {
		t.Errorf("results = %v, want %v", names, want)
	}
	if snap.Meta.Tool != "midas-sim" || snap.Meta.Topologies != 2 {
		t.Errorf("meta = %+v, want tool midas-sim and topologies 2", snap.Meta)
	}
}

// TestListMeta checks that a list's meta drops every per-scenario value
// the listed specs disagree on, and keeps the ones they share.
func TestListMeta(t *testing.T) {
	a := scenario.Spec{Seed: 7, Topologies: 4, Parallelism: 2, SimTime: scenario.Duration(50 * time.Millisecond), Replicates: 3}
	b := scenario.Spec{Seed: 7, Topologies: 8, Parallelism: 2, Replicates: 1}
	if got, want := listMeta([]scenario.Spec{a}), a.SinkMeta("midas-sim"); got != want {
		t.Errorf("one spec: meta %+v, want its own %+v", got, want)
	}
	got := listMeta([]scenario.Spec{a, b, a})
	want := runner.Meta{Tool: "midas-sim", Seed: 7, Parallelism: 2}
	if got != want {
		t.Errorf("disagreeing specs: meta %+v, want %+v", got, want)
	}
}
