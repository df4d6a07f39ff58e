package sim

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// beamforming collects n topologies of the beamforming study at one
// window as [SNR full, SNR local, silenced full, silenced local]
// samples.
func beamforming(n int, windowDB float64, seed int64) []*stats.Sample {
	return columns(collect(n, seed, func(i int, root *rng.Source) [4]float64 {
		return BeamformingStudy(windowDB, i, root)
	}))
}

func TestBeamformingStudyShape(t *testing.T) {
	res := beamforming(40, 12, 83)
	if res[0].N() == 0 {
		t.Fatal("no beamforming samples")
	}
	snrFull := res[0].MustMedian()
	snrLocal := res[1].MustMedian()
	silFull := res[2].MustMedian()
	silLocal := res[3].MustMedian()
	// §7's tradeoff: localized beamforming gives up a little SNR...
	if snrLocal > snrFull+1e-9 {
		t.Errorf("localized SNR %v cannot exceed full-array %v", snrLocal, snrFull)
	}
	if snrFull-snrLocal > 4 {
		t.Errorf("localized loses %.1f dB median, want small", snrFull-snrLocal)
	}
	// ...but silences a clearly smaller area.
	if silLocal >= silFull {
		t.Errorf("localized should silence less area: %.2f vs %.2f", silLocal, silFull)
	}
	t.Logf("beamforming: SNR %.1f→%.1f dB, silenced area %.0f%%→%.0f%%",
		snrFull, snrLocal, silFull*100, silLocal*100)
}

func TestBeamformingWindowMonotone(t *testing.T) {
	// A wider neighbourhood window can only add antennas: SNR up,
	// silenced area up.
	narrow := beamforming(20, 6, 89)
	wide := beamforming(20, 30, 89)
	if wide[1].MustMedian() < narrow[1].MustMedian()-1e-9 {
		t.Error("wider window should not lose SNR")
	}
	if wide[3].MustMedian() < narrow[3].MustMedian()-1e-9 {
		t.Error("wider window should not silence less")
	}
}

func TestPlacementStudyOptimizedWinsCoverage(t *testing.T) {
	res := columns(collectErr(t, 16, 97, func(i int, root *rng.Source) ([4]float64, error) {
		return PlacementStudy(30, i, root)
	}))
	cr := res[0].MustMedian()
	co := res[2].MustMedian()
	// The optimiser's own objective must improve.
	if co < cr {
		t.Errorf("optimized coverage %v dB below random %v dB", co, cr)
	}
	// Capacity for the matched random clients is a different metric: it
	// must stay in the same band (the optimiser is not allowed to wreck
	// service for typical clients while chasing corners).
	mr := res[1].MustMedian()
	mo := res[3].MustMedian()
	if mo < mr*0.6 {
		t.Errorf("optimized capacity %v collapsed vs random %v", mo, mr)
	}
	t.Logf("placement: coverage %.1f→%.1f dB, capacity %.1f→%.1f bit/s/Hz", cr, co, mr, mo)
}
