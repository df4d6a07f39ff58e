package topology

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/rng"
)

func testObjective(seed int64) (*PlacementObjective, channel.Params) {
	p := channel.Default()
	return &PlacementObjective{
		Budget:   channel.Budget{P: p, Field: p.NewField(seed)},
		Spots:    coverageSpots(13, 2.5),
		Quantile: 0.05,
	}, p
}

func TestObjectiveScoreOrdersCoverage(t *testing.T) {
	obj, _ := testObjective(1)
	// A spread-out square of antennas must beat four stacked at a point.
	spread := []geom.Point{geom.Pt(6, 6), geom.Pt(-6, 6), geom.Pt(6, -6), geom.Pt(-6, -6)}
	stacked := []geom.Point{geom.Pt(6, 6), geom.Pt(6, 6), geom.Pt(6, 6), geom.Pt(6, 6)}
	if obj.Score(spread) <= obj.Score(stacked) {
		t.Errorf("spread %.1f should beat stacked %.1f", obj.Score(spread), obj.Score(stacked))
	}
}

func TestObjectiveEmptySpots(t *testing.T) {
	obj, _ := testObjective(2)
	obj.Spots = nil
	if !math.IsInf(obj.Score([]geom.Point{{}}), -1) {
		t.Error("no spots should score -Inf")
	}
}

func TestOptimizePlacementRespectsRules(t *testing.T) {
	cfg := DefaultConfig(DAS)
	cfg.MinAntennaSep = 3
	obj, _ := testObjective(3)
	pos := OptimizePlacement(cfg, geom.Pt(0, 0), obj, 40, rng.New(4))
	if len(pos) != cfg.AntennasPerAP {
		t.Fatalf("placed %d antennas", len(pos))
	}
	inner := cfg.DASInnerFrac * cfg.CoverageRadius
	outer := cfg.DASOuterFrac * cfg.CoverageRadius
	for i, p := range pos {
		r := p.Norm()
		if r < inner-1e-9 || r > outer+1e-9 {
			t.Errorf("antenna %d at radius %.2f outside [%.2f, %.2f]", i, r, inner, outer)
		}
	}
	if d := geom.MinDist(pos); d < cfg.MinAntennaSep-1e-9 {
		t.Errorf("min separation %.2f < %v", d, cfg.MinAntennaSep)
	}
}

func TestOptimizedBeatsRandomPlacement(t *testing.T) {
	// The §7 open problem: optimised placement should dominate random
	// placement on the coverage objective across seeds.
	wins, trials := 0, 12
	for seed := int64(0); seed < int64(trials); seed++ {
		cfg := DefaultConfig(DAS)
		p := channel.Default()
		fieldSeed := rng.New(seed).Split("field").Seed()
		b := channel.Budget{P: p, Field: p.NewField(fieldSeed)}
		obj := &PlacementObjective{Budget: b, Spots: coverageSpots(cfg.CoverageRadius, 2.5), Quantile: 0.05}
		random := SingleAP(cfg, rng.New(seed))
		var randomPos []geom.Point
		for _, a := range random.Antennas {
			randomPos = append(randomPos, a.Pos)
		}
		optimized := OptimizedSingleAP(cfg, CoverageObjective(b, cfg.CoverageRadius), 30, rng.New(seed))
		var optPos []geom.Point
		for _, a := range optimized.Antennas {
			optPos = append(optPos, a.Pos)
		}
		if obj.Score(optPos) >= obj.Score(randomPos) {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Errorf("optimised placement won only %d/%d trials", wins, trials)
	}
}

func TestOptimizedSingleAPKeepsClients(t *testing.T) {
	cfg := DefaultConfig(DAS)
	p := channel.Default()
	a := SingleAP(cfg, rng.New(9))
	b := OptimizedSingleAP(cfg, CoverageObjective(channel.Budget{P: p, Field: p.NewField(123)}, cfg.CoverageRadius), 10, rng.New(9))
	if len(a.Clients) != len(b.Clients) {
		t.Fatal("client counts differ")
	}
	for j := range a.Clients {
		if a.Clients[j] != b.Clients[j] {
			t.Errorf("client %d moved: %v vs %v", j, a.Clients[j], b.Clients[j])
		}
	}
}

func TestCoverageSpotsInsideDisc(t *testing.T) {
	spots := coverageSpots(10, 2)
	if len(spots) == 0 {
		t.Fatal("no spots")
	}
	for _, s := range spots {
		if s.Norm() > 10+1e-9 {
			t.Errorf("spot %v outside disc", s)
		}
	}
}
