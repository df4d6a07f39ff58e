package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden figure files from the current code")

// goldenFile is the committed format: the fully resolved spec the run
// replays, plus the result it must reproduce byte-for-byte.
type goldenFile struct {
	Spec   Spec   `json:"spec"`
	Result Result `json:"result"`
}

// goldenOverrides returns the reduced-scale spec for a scenario's
// golden run: small enough that the whole suite replays in CI, large
// enough that every code path (both experiment arms, sweeps, maps)
// executes. Scales are per scenario because the experiments' costs
// span three orders of magnitude.
func goldenOverrides(name string) Spec {
	short := Duration(20 * time.Millisecond)
	switch name {
	case "fig11-optimal-gap": // numerical optimum: seconds per topology
		return Spec{Topologies: 2}
	case "fig13-deadzones", "ht-hidden-terminals": // dense grids per deployment
		return Spec{Topologies: 2}
	case "fig15-end-to-end", "decomp-gain-breakdown", "client-churn",
		"ablation-tagwidth", "ablation-waitwindow", "ablation-scheduler":
		return Spec{Topologies: 2, SimTime: short}
	case "fig15-replicated": // 3 replicates of a short e2e run, so the
		// golden pins the {mean, stddev, ci95, n} summary schema
		return Spec{Topologies: 2, SimTime: short, Replicates: 3}
	case "fig16-large-scale":
		return Spec{Topologies: 2, SimTime: short}
	case "dense-venue": // 16-AP DES × the clients sweep
		return Spec{Topologies: 1, SimTime: short}
	case "ablation-correlation":
		return Spec{Topologies: 4}
	case "ext-placement":
		return Spec{Topologies: 2}
	default: // PHY/MAC topology sweeps are cheap
		return Spec{Topologies: 3}
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenFigures replays every registered scenario's committed spec
// at parallelism 1 and 8 and requires the serialized result to match
// the golden file byte-for-byte. Run with -update to regenerate the
// goldens after an intentional change:
//
//	go test ./internal/scenario -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay runs every scenario; skipped in -short")
	}
	ctx := context.Background()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			path := goldenPath(name)

			if *update {
				spec, err := Resolve(sc, goldenOverrides(name))
				if err != nil {
					t.Fatal(err)
				}
				spec.Parallelism = 0 // the replay chooses; keep the file neutral
				res, err := Run(ctx, sc, spec)
				if err != nil {
					t.Fatal(err)
				}
				b, err := marshalGolden(goldenFile{Spec: spec, Result: res})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			var gf goldenFile
			if err := json.Unmarshal(raw, &gf); err != nil {
				t.Fatalf("corrupt golden %s: %v", path, err)
			}

			for _, par := range []int{1, 8} {
				spec := gf.Spec.clone()
				spec.Parallelism = par
				res, err := Run(ctx, sc, spec)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got, err := marshalGolden(goldenFile{Spec: gf.Spec, Result: res})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, raw) {
					t.Errorf("parallelism %d: result diverged from golden %s\n(run with -update only if the change is intentional)\n%s",
						par, path, diffHint(raw, got))
				}
			}
		})
	}
}

func marshalGolden(gf goldenFile) ([]byte, error) {
	b, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// diffHint returns the first line where the two serializations differ,
// so a golden failure points at the drifted value instead of dumping
// two multi-kilobyte blobs.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return "line " + strconv.Itoa(i+1) + ":\n golden: " + string(wl[i]) + "\n    got: " + string(gl[i])
		}
	}
	return "one file is a prefix of the other (lengths " + strconv.Itoa(len(want)) + " vs " + strconv.Itoa(len(got)) + ")"
}
