package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestFig3ShapeDASDropsMore(t *testing.T) {
	cas, das, err := Fig3NaiveScalingDrop(PhyOpts{Topologies: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mc, md := cas.MustMedian(), das.MustMedian()
	if md <= mc {
		t.Errorf("Fig3: DAS median drop %v should exceed CAS %v", md, mc)
	}
	if mc < 0 {
		t.Errorf("negative capacity drop %v", mc)
	}
}

func TestFig7ShapeDASGainsSNR(t *testing.T) {
	cas, das := Fig7LinkSNR(PhyOpts{Topologies: 40, Seed: 5})
	mc, md := cas.MustMedian(), das.MustMedian()
	gain := md - mc
	if gain < 2 {
		t.Errorf("Fig7: DAS median SNR gain = %.1f dB, want ≥2 (paper ≈5)", gain)
	}
	if mc < 5 || mc > 30 {
		t.Errorf("Fig7: CAS median SNR %.1f dB outside calibration band", mc)
	}
	t.Logf("Fig7: CAS median %.1f dB, DAS %.1f dB (+%.1f)", mc, md, gain)
}

func TestFig8And9ShapeMIDASWins(t *testing.T) {
	for _, o := range []Office{OfficeA, OfficeB} {
		for _, nAnt := range []int{2, 4} {
			cas, midas, err := FigCapacityCDF(o, PhyOpts{Topologies: 40, Seed: 7, Antennas: nAnt})
			if err != nil {
				t.Fatal(err)
			}
			mc, mm, gain := SummarizeGain(cas, midas)
			// Paper: 40–67% (2 ant) and 45–80% (4 ant). Our 4×4 lands in
			// band; the 2×2 gain is attenuated because uniformly-placed
			// clients can sit behind both of only two distributed
			// antennas, where the testbed's office/corridor clients did
			// not.
			min := 0.2
			if nAnt == 2 {
				min = 0.0
			}
			if gain < min {
				t.Errorf("%v %dx%d: median gain %.0f%% below %.0f%%",
					o, nAnt, nAnt, gain*100, min*100)
			}
			t.Logf("%v %dx%d: CAS %.1f MIDAS %.1f (+%.0f%%)", o, nAnt, nAnt, mc, mm, gain*100)
		}
	}
}

func TestFig10ShapePrecodingHelpsDASMore(t *testing.T) {
	c, err := Fig10SmartPrecoding(PhyOpts{Topologies: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	casGain, err := stats.MedianGain(c.CASBalanced, c.CASNaive)
	if err != nil {
		t.Fatal(err)
	}
	dasGain, err := stats.MedianGain(c.DASBalanced, c.DASNaive)
	if err != nil {
		t.Fatal(err)
	}
	if dasGain <= casGain {
		t.Errorf("Fig10: DAS precoding gain %.0f%% should exceed CAS %.0f%%",
			dasGain*100, casGain*100)
	}
	if casGain < -0.01 {
		t.Errorf("Fig10: precoding should not hurt CAS (%.1f%%)", casGain*100)
	}
	t.Logf("Fig10: precoding gain CAS %.0f%%, DAS %.0f%% (paper: 12%%, 30%%)",
		casGain*100, dasGain*100)
}

func TestFig11ShapeNearOptimal(t *testing.T) {
	pts, err := Fig11OptimalGap(PhyOpts{Topologies: 12, Seed: 13}, false)
	if err != nil {
		t.Fatal(err)
	}
	var sumM, sumO float64
	for _, p := range pts {
		sumM += p.MIDAS
		sumO += p.Optimal
		if p.MIDAS <= 0 || p.Optimal <= 0 {
			t.Errorf("topology %d: non-positive rate", p.Topology)
		}
	}
	if ratio := sumM / sumO; ratio < 0.90 {
		t.Errorf("Fig11: aggregate MIDAS/optimal = %.3f, want ≥0.90 (paper ≈0.99)", ratio)
	}
}

func TestFig11TestbedVariantCanBeat(t *testing.T) {
	// With the channel moving during the optimiser's long solve, MIDAS
	// should beat the (stale) optimum on a decent fraction of topologies.
	pts, err := Fig11OptimalGap(PhyOpts{Topologies: 15, Seed: 17}, true)
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	for _, p := range pts {
		if p.MIDAS > p.Optimal {
			beats++
		}
	}
	if beats == 0 {
		t.Error("Fig11 testbed: expected MIDAS to beat the stale optimum somewhere")
	}
}

func TestFig12ShapeMoreStreams(t *testing.T) {
	res := Fig12SpatialReuse(30, 19, EnvOverrides{}, 0)
	if len(res) != 30 {
		t.Fatalf("got %d topologies", len(res))
	}
	ratios := stats.NewSample()
	worse := 0
	for _, r := range res {
		ratios.Add(r.Ratio)
		if r.Ratio < 1 {
			worse++
		}
	}
	med := ratios.MustMedian()
	if med < 1.1 {
		t.Errorf("Fig12: median stream ratio %.2f, want >1.1 (paper ≈1.5)", med)
	}
	if worse > len(res)/4 {
		t.Errorf("Fig12: %d/%d topologies worse than CAS (paper: 2/30)", worse, len(res))
	}
	t.Logf("Fig12: median ratio %.2f, %d/%d below 1.0", med, worse, len(res))
}

func TestFig13ShapeFewerDeadzones(t *testing.T) {
	res := Fig13Deadzones(6, 23, EnvOverrides{}, 0)
	if res.Spots == 0 || res.CASDeadspots == 0 {
		t.Fatalf("degenerate deadzone result: %+v spots=%d cas=%d",
			res.MapCols, res.Spots, res.CASDeadspots)
	}
	reduction := 1 - float64(res.DASDeadspots)/float64(res.CASDeadspots)
	if reduction < 0.5 {
		t.Errorf("Fig13: deadspot reduction %.0f%%, want ≥50%% (paper 91%%)", reduction*100)
	}
	if len(res.CASMap) == 0 || len(res.CASMap) != len(res.DASMap) {
		t.Error("Fig13: missing example maps")
	}
	t.Logf("Fig13: CAS %d vs DAS %d deadspots over %d spots (%.0f%% reduction)",
		res.CASDeadspots, res.DASDeadspots, res.Spots, reduction*100)
}

func TestHiddenTerminalShape(t *testing.T) {
	res := HiddenTerminals(6, 29, EnvOverrides{}, 0)
	if res.CASSpots == 0 {
		t.Fatal("expected some CAS hidden-terminal spots")
	}
	reduction := 1 - float64(res.DASSpots)/float64(res.CASSpots)
	if reduction < 0.4 {
		t.Errorf("hidden terminals: reduction %.0f%%, want ≥40%% (paper 94%%)", reduction*100)
	}
	t.Logf("hidden terminals: CAS %d vs DAS %d (%.0f%% reduction)",
		res.CASSpots, res.DASSpots, reduction*100)
}

func TestFig14ShapeTaggingWins(t *testing.T) {
	random, tagged, err := Fig14PacketTagging(PhyOpts{Topologies: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	mr, mt, gain := SummarizeGain(random, tagged)
	if gain < 0.15 {
		t.Errorf("Fig14: tagging median gain %.0f%%, want ≥15%% (paper ≈50%%)", gain*100)
	}
	t.Logf("Fig14: random %.1f tagged %.1f (+%.0f%%)", mr, mt, gain*100)
}

// TestFig14CollinearPairServesOneClient: at this seed topology 5 draws
// a client pair whose channels on the two available antennas are
// collinear to working precision, so zero-forcing has no solution. The
// experiment must still produce every topology's point, crediting that
// pair with the better single client's capacity.
func TestFig14CollinearPairServesOneClient(t *testing.T) {
	random, tagged, err := Fig14PacketTagging(PhyOpts{Topologies: 8, Seed: 26656402802})
	if err != nil {
		t.Fatal(err)
	}
	if random.N() != 8 || tagged.N() != 8 {
		t.Fatalf("got %d random and %d tagged points, want 8 each", random.N(), tagged.N())
	}
	for _, s := range []*stats.Sample{random, tagged} {
		for _, v := range s.Values() {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("capacity %v, want a positive finite rate", v)
			}
		}
	}
}

func TestFig15ShapeEndToEnd(t *testing.T) {
	o := E2EOpts{Topologies: 12, SimTime: 250 * time.Millisecond, Seed: 37}
	cas, midas := Fig15EndToEnd(o)
	mc, mm, gain := SummarizeGain(cas, midas)
	if gain < 0.1 {
		t.Errorf("Fig15: median gain %.0f%%, want ≥10%% (paper ≈200%%)", gain*100)
	}
	t.Logf("Fig15 (reduced run): CAS %.1f MIDAS %.1f (+%.0f%%)", mc, mm, gain*100)
}

func TestFig16ShapeLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale DES in -short mode")
	}
	o := E2EOpts{Topologies: 6, SimTime: 200 * time.Millisecond, Seed: 41}
	cas, midas, err := Fig16LargeScale(o)
	if err != nil {
		t.Fatal(err)
	}
	mc, mm, gain := SummarizeGain(cas, midas)
	if gain < 0.05 {
		t.Errorf("Fig16: median gain %.0f%%, want ≥5%% (paper >150%%)", gain*100)
	}
	t.Logf("Fig16 (reduced run): CAS %.1f MIDAS %.1f (+%.0f%%)", mc, mm, gain*100)
}

// TestFig16BackoffTiesPinned pins two Figure 16 topologies, bit for
// bit, whose runs hinge on a same-instant tie the goldens never reach: a
// station's TXOP start, queued one slot ahead by its grant, against
// another contender's backoff slot boundary. An engine that ordered a
// countdown's grant against other events by resume order alone changes
// topology 81's MIDAS result; one that ignored which event queued the
// TXOP start changes both topologies'.
func TestFig16BackoffTiesPinned(t *testing.T) {
	o := E2EOpts{Seed: 3, SimTime: 300 * time.Millisecond}
	for _, c := range []struct {
		topo       int
		cas, midas float64
	}{
		{20, 35.92484633958942, 35.506445121121104},
		{81, 49.437841568134424, 39.982392102786456},
	} {
		got, err := fig16Topology(o, rng.New(3).SplitN("fig16", c.topo))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.a) != math.Float64bits(c.cas) || math.Float64bits(got.b) != math.Float64bits(c.midas) {
			t.Errorf("topology %d: CAS %v, MIDAS %v; want %v, %v", c.topo, got.a, got.b, c.cas, c.midas)
		}
	}
}

func TestDecompositionMonotone(t *testing.T) {
	o := E2EOpts{Topologies: 8, SimTime: 200 * time.Millisecond, Seed: 43}
	res := Decomposition(o)
	base := res.CAS.MustMedian()
	full := res.FullMIDAS.MustMedian()
	if full <= base {
		t.Errorf("decomposition: full MIDAS %.1f should beat CAS %.1f", full, base)
	}
	t.Logf("decomposition medians: CAS %.1f, +precoding %.1f, +DAS %.1f, full %.1f",
		base, res.CASPlusPrecoding.MustMedian(),
		res.DASPlusPrecoding.MustMedian(), full)
}

func TestAblationTagWidthRuns(t *testing.T) {
	o := E2EOpts{Topologies: 4, SimTime: 150 * time.Millisecond, Seed: 47}
	res := AblationTagWidth([]int{1, 2, 4}, o)
	for w, s := range res {
		if s.N() != o.Topologies {
			t.Errorf("width %d: %d samples", w, s.N())
		}
		if m := s.MustMedian(); m <= 0 {
			t.Errorf("width %d: non-positive capacity %v", w, m)
		}
	}
}

func TestAblationSchedulerRuns(t *testing.T) {
	o := E2EOpts{Topologies: 4, SimTime: 150 * time.Millisecond, Seed: 53}
	res := AblationScheduler(o)
	for name, s := range res {
		if m := s.MustMedian(); m <= 0 {
			t.Errorf("%s: non-positive capacity %v", name, m)
		}
	}
}

func TestAblationWaitWindowRuns(t *testing.T) {
	o := E2EOpts{Topologies: 4, SimTime: 150 * time.Millisecond, Seed: 59}
	res := AblationWaitWindow([]time.Duration{0, 34 * time.Microsecond, 68 * time.Microsecond}, o)
	for w, s := range res {
		if m := s.MustMedian(); m <= 0 {
			t.Errorf("window %v: non-positive capacity %v", w, m)
		}
	}
}

func TestAblationCorrelationMonotoneish(t *testing.T) {
	res := AblationCorrelation([]float64{0, 0.9}, 30, 61, 0)
	lo := res[0].MustMedian()
	hi := res[0.9].MustMedian()
	if hi >= lo {
		t.Errorf("high CAS correlation (%.1f) should cost capacity vs none (%.1f)", hi, lo)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a, _, err := Fig3NaiveScalingDrop(PhyOpts{Topologies: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fig3NaiveScalingDrop(PhyOpts{Topologies: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("Fig3 not deterministic")
		}
	}
}
