package sim

import (
	"testing"
)

func TestBeamformingStudyShape(t *testing.T) {
	res := BeamformingStudy(40, 12, 83, 0)
	if res.SNRFull.N() == 0 {
		t.Fatal("no beamforming samples")
	}
	snrFull := res.SNRFull.MustMedian()
	snrLocal := res.SNRLocal.MustMedian()
	silFull := res.SilencedFull.MustMedian()
	silLocal := res.SilencedLocal.MustMedian()
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
	narrow := BeamformingStudy(20, 6, 89, 0)
	wide := BeamformingStudy(20, 30, 89, 0)
	if wide.SNRLocal.MustMedian() < narrow.SNRLocal.MustMedian()-1e-9 {
		t.Error("wider window should not lose SNR")
	}
	if wide.SilencedLocal.MustMedian() < narrow.SilencedLocal.MustMedian()-1e-9 {
		t.Error("wider window should not silence less")
	}
}

func TestPlacementStudyOptimizedWinsCoverage(t *testing.T) {
	res, err := PlacementStudy(16, 30, 97, 0)
	if err != nil {
		t.Fatal(err)
	}
	cr := res.RandomCoverage.MustMedian()
	co := res.OptimizedCoverage.MustMedian()
	// The optimiser's own objective must improve.
	if co < cr {
		t.Errorf("optimized coverage %v dB below random %v dB", co, cr)
	}
	// Capacity for the matched random clients is a different metric: it
	// must stay in the same band (the optimiser is not allowed to wreck
	// service for typical clients while chasing corners).
	mr := res.RandomCapacity.MustMedian()
	mo := res.OptimizedCapacity.MustMedian()
	if mo < mr*0.6 {
		t.Errorf("optimized capacity %v collapsed vs random %v", mo, mr)
	}
	t.Logf("placement: coverage %.1f→%.1f dB, capacity %.1f→%.1f bit/s/Hz", cr, co, mr, mo)
}
