package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// collect runs fn over topologies 0 … n-1 of seed, in order: the
// sequential form of the scenario layer's topology loop.
func collect[R any](n int, seed int64, fn func(t int, root *rng.Source) R) []R {
	root := rng.New(seed)
	out := make([]R, n)
	for t := range out {
		out[t] = fn(t, root)
	}
	return out
}

// collectErr is collect for fallible functions; it fails tb on the
// first error.
func collectErr[R any](tb testing.TB, n int, seed int64, fn func(t int, root *rng.Source) (R, error)) []R {
	tb.Helper()
	return collect(n, seed, func(t int, root *rng.Source) R {
		r, err := fn(t, root)
		if err != nil {
			tb.Fatalf("topology %d: %v", t, err)
		}
		return r
	})
}

// columns splits two-arm records into one sample per arm.
func columns[R ~[2]float64 | ~[3]float64 | ~[4]float64](recs []R) []*stats.Sample {
	var out []*stats.Sample
	for i := 0; len(recs) > 0 && i < len(recs[0]); i++ {
		s := stats.NewSample()
		for _, r := range recs {
			s.Add(r[i])
		}
		out = append(out, s)
	}
	return out
}

func TestFig3ShapeDASDropsMore(t *testing.T) {
	s := columns(collectErr(t, 30, 3, func(i int, root *rng.Source) ([2]float64, error) {
		return Fig3NaiveScalingDrop(Opts{}, i, root)
	}))
	mc, md := s[0].MustMedian(), s[1].MustMedian()
	if md <= mc {
		t.Errorf("Fig3: DAS median drop %v should exceed CAS %v", md, mc)
	}
	if mc < 0 {
		t.Errorf("negative capacity drop %v", mc)
	}
}

func TestFig7ShapeDASGainsSNR(t *testing.T) {
	cas, das := stats.NewSample(), stats.NewSample()
	for _, snrs := range collect(40, 5, func(i int, root *rng.Source) [2][]float64 {
		return Fig7LinkSNR(Opts{}, i, root)
	}) {
		cas.AddAll(snrs[0])
		das.AddAll(snrs[1])
	}
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
			s := columns(collectErr(t, 40, 7, func(i int, root *rng.Source) ([2]float64, error) {
				return FigCapacityCDF(o, Opts{Antennas: nAnt}, i, root)
			}))
			mc, mm, gain := SummarizeGain(s[0], s[1])
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
	c := columns(collectErr(t, 40, 11, func(i int, root *rng.Source) ([4]float64, error) {
		return Fig10SmartPrecoding(Opts{}, i, root)
	}))
	casGain, err := stats.MedianGain(c[1], c[0])
	if err != nil {
		t.Fatal(err)
	}
	dasGain, err := stats.MedianGain(c[3], c[2])
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
	pts := collectErr(t, 12, 13, func(i int, root *rng.Source) (Fig11Point, error) {
		return Fig11OptimalGap(Opts{}, i, root, false)
	})
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
	pts := collectErr(t, 15, 17, func(i int, root *rng.Source) (Fig11Point, error) {
		return Fig11OptimalGap(Opts{}, i, root, true)
	})
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
	res := collect(30, 19, func(i int, root *rng.Source) Fig12Result {
		return Fig12SpatialReuse(Opts{}, i, root)
	})
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
	var res DeadzoneResult
	for d, r := range collect(6, 23, func(i int, root *rng.Source) DeadzoneResult {
		return Fig13Deadzones(Opts{}, i, root)
	}) {
		res.CASDeadspots += r.CASDeadspots
		res.DASDeadspots += r.DASDeadspots
		res.Spots += r.Spots
		if d == 0 {
			res.CASMap, res.DASMap, res.MapCols = r.CASMap, r.DASMap, r.MapCols
		} else if r.CASMap != nil || r.MapCols != 0 {
			t.Errorf("deployment %d recorded a map; only deployment 0 does", d)
		}
	}
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
	var res HiddenTerminalResult
	for _, r := range collect(6, 29, func(i int, root *rng.Source) HiddenTerminalResult {
		return HiddenTerminals(Opts{}, i, root)
	}) {
		res.CASSpots += r.CASSpots
		res.DASSpots += r.DASSpots
		res.Spots += r.Spots
	}
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
	s := columns(collectErr(t, 40, 31, func(i int, root *rng.Source) ([2]float64, error) {
		return Fig14PacketTagging(Opts{}, i, root)
	}))
	mr, mt, gain := SummarizeGain(s[0], s[1])
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
	recs := collectErr(t, 8, 26656402802, func(i int, root *rng.Source) ([2]float64, error) {
		return Fig14PacketTagging(Opts{}, i, root)
	})
	for _, r := range recs {
		for _, v := range r {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("capacity %v, want a positive finite rate", v)
			}
		}
	}
}

func TestFig15ShapeEndToEnd(t *testing.T) {
	o := Opts{SimTime: 250 * time.Millisecond}
	s := columns(collect(12, 37, func(i int, root *rng.Source) [2]float64 {
		return Fig15EndToEnd(o, i, root)
	}))
	mc, mm, gain := SummarizeGain(s[0], s[1])
	if gain < 0.1 {
		t.Errorf("Fig15: median gain %.0f%%, want ≥10%% (paper ≈200%%)", gain*100)
	}
	t.Logf("Fig15 (reduced run): CAS %.1f MIDAS %.1f (+%.0f%%)", mc, mm, gain*100)
}

func TestFig16ShapeLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale DES in -short mode")
	}
	o := Opts{SimTime: 200 * time.Millisecond}
	s := columns(collectErr(t, 6, 41, func(i int, root *rng.Source) ([2]float64, error) {
		return Fig16LargeScale(o, i, root)
	}))
	mc, mm, gain := SummarizeGain(s[0], s[1])
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
	o := Opts{SimTime: 300 * time.Millisecond}
	for _, c := range []struct {
		topo       int
		cas, midas float64
	}{
		{20, 35.92484633958942, 35.506445121121104},
		{81, 49.437841568134424, 39.982392102786456},
	} {
		got, err := Fig16LargeScale(o, c.topo, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0]) != math.Float64bits(c.cas) || math.Float64bits(got[1]) != math.Float64bits(c.midas) {
			t.Errorf("topology %d: CAS %v, MIDAS %v; want %v, %v", c.topo, got[0], got[1], c.cas, c.midas)
		}
	}
}

func TestDecompositionMonotone(t *testing.T) {
	o := Opts{SimTime: 200 * time.Millisecond}
	res := columns(collect(8, 43, func(i int, root *rng.Source) [4]float64 {
		return Decomposition(o, i, root)
	}))
	base := res[0].MustMedian()
	full := res[3].MustMedian()
	if full <= base {
		t.Errorf("decomposition: full MIDAS %.1f should beat CAS %.1f", full, base)
	}
	t.Logf("decomposition medians: CAS %.1f, +precoding %.1f, +DAS %.1f, full %.1f",
		base, res[1].MustMedian(), res[2].MustMedian(), full)
}

func TestAblationTagWidthRuns(t *testing.T) {
	o := Opts{SimTime: 150 * time.Millisecond}
	for _, w := range []int{1, 2, 4} {
		caps := stats.NewSample()
		for _, c := range collect(4, 47, func(i int, root *rng.Source) float64 {
			return AblationTagWidth(o, w, i, root)
		}) {
			caps.Add(c)
		}
		if caps.N() != 4 {
			t.Errorf("width %d: %d samples", w, caps.N())
		}
		if m := caps.MustMedian(); m <= 0 {
			t.Errorf("width %d: non-positive capacity %v", w, m)
		}
	}
}

func TestAblationSchedulerRuns(t *testing.T) {
	o := Opts{SimTime: 150 * time.Millisecond}
	res := columns(collect(4, 53, func(i int, root *rng.Source) [3]float64 {
		return AblationScheduler(o, i, root)
	}))
	for i, s := range res {
		if m := s.MustMedian(); m <= 0 {
			t.Errorf("%s: non-positive capacity %v", SchedulerNames[i], m)
		}
	}
}

func TestAblationWaitWindowRuns(t *testing.T) {
	o := Opts{SimTime: 150 * time.Millisecond}
	for _, w := range []time.Duration{0, 34 * time.Microsecond, 68 * time.Microsecond} {
		caps := stats.NewSample()
		for _, c := range collect(4, 59, func(i int, root *rng.Source) float64 {
			return AblationWaitWindow(o, w, i, root)
		}) {
			caps.Add(c)
		}
		if m := caps.MustMedian(); m <= 0 {
			t.Errorf("window %v: non-positive capacity %v", w, m)
		}
	}
}

func TestAblationCorrelationMonotoneish(t *testing.T) {
	lo, hi := stats.NewSample(), stats.NewSample()
	for _, rates := range collect(30, 61, func(i int, root *rng.Source) []float64 {
		return AblationCorrelation([]float64{0, 0.9}, i, root)
	}) {
		lo.Add(rates[0])
		hi.Add(rates[1])
	}
	if hi.MustMedian() >= lo.MustMedian() {
		t.Errorf("high CAS correlation (%.1f) should cost capacity vs none (%.1f)", hi.MustMedian(), lo.MustMedian())
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	run := func() [][2]float64 {
		return collectErr(t, 5, 99, func(i int, root *rng.Source) ([2]float64, error) {
			return Fig3NaiveScalingDrop(Opts{}, i, root)
		})
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i][0]) != math.Float64bits(b[i][0]) || math.Float64bits(a[i][1]) != math.Float64bits(b[i][1]) {
			t.Fatal("Fig3 not deterministic")
		}
	}
}
