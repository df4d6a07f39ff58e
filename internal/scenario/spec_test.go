package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func f64(v float64) *float64 { return &v }

// fullSpec exercises every field of the schema.
func fullSpec() Spec {
	return Spec{
		Scenario:    "fig15-end-to-end",
		Topologies:  12,
		Seed:        7,
		SimTime:     Duration(250 * time.Millisecond),
		Antennas:    4,
		Clients:     8,
		Replicates:  3,
		Parallelism: 2,
		Venue:       &Venue{Width: 104, Height: 80, APs: 16, CoverageRadius: 15},
		Shadowing: &Shadowing{
			SigmaDB:        f64(5),
			CASCorrelation: f64(0.7),
			WallDB:         f64(7),
			MaxWallDB:      f64(42),
			RoomW:          f64(5),
			RoomH:          f64(6),
		},
		Sweep: map[string][]float64{"clients": {2, 4, 8}},
	}
}

// TestSpecRoundTrip verifies marshal→unmarshal is lossless for every
// field, including the duration string form and pointer-valued
// shadowing overrides.
func TestSpecRoundTrip(t *testing.T) {
	for name, spec := range map[string]Spec{
		"full":     fullSpec(),
		"minimal":  {Scenario: "fig3-naive-scaling-drop", Topologies: 1, Seed: 1, Antennas: 1, Clients: 1, Replicates: 1},
		"zeroes":   {Shadowing: &Shadowing{SigmaDB: f64(0)}},
		"odd-time": {SimTime: Duration(34*time.Microsecond + 7*time.Nanosecond)},
	} {
		t.Run(name, func(t *testing.T) {
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSpec(strings.NewReader(string(b)))
			if err != nil {
				t.Fatalf("decode of own marshal failed: %v\n%s", err, b)
			}
			if !reflect.DeepEqual(got, spec) {
				t.Errorf("round trip lost data:\n got %+v\nwant %+v\njson %s", got, spec, b)
			}
		})
	}
}

// TestDecodeSpecRejectsUnknownFields verifies a misspelled knob fails
// loudly instead of silently running defaults.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	for _, bad := range []string{
		`{"topologys": 5}`,
		`{"venue": {"widht": 10, "height": 10}}`,
		`{"shadowing": {"sigma": 4}}`,
		`{"clients": 4} {"clients": 5}`,
	} {
		if _, err := DecodeSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeSpec(%s) accepted invalid input", bad)
		}
	}
}

// TestValidateRejectsInvalidSpecs checks that broken specs produce
// descriptive errors rather than panicking downstream. Each case
// starts from a valid base so exactly one field is at fault.
func TestValidateRejectsInvalidSpecs(t *testing.T) {
	base := func() Spec {
		return Spec{Topologies: 4, Seed: 1, Antennas: 4, Clients: 4, Replicates: 1}
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"zero clients", func(s *Spec) { s.Clients = 0 }, "clients"},
		{"negative clients", func(s *Spec) { s.Clients = -3 }, "clients"},
		{"zero antennas", func(s *Spec) { s.Antennas = 0 }, "antennas"},
		{"zero topologies", func(s *Spec) { s.Topologies = 0 }, "topologies"},
		{"zero replicates", func(s *Spec) { s.Replicates = 0 }, "replicates"},
		{"negative parallelism", func(s *Spec) { s.Parallelism = -1 }, "parallelism"},
		{"negative simtime", func(s *Spec) { s.SimTime = Duration(-time.Second) }, "simtime"},
		{"negative venue", func(s *Spec) { s.Venue = &Venue{Width: -10, Height: 10} }, "venue dimensions"},
		{"half venue", func(s *Spec) { s.Venue = &Venue{Width: 10} }, "width and height"},
		{"negative coverage", func(s *Spec) { s.Venue = &Venue{CoverageRadius: -1} }, "coverage_radius"},
		{"negative sigma", func(s *Spec) { s.Shadowing = &Shadowing{SigmaDB: f64(-1)} }, "sigma_db"},
		{"correlation too big", func(s *Spec) { s.Shadowing = &Shadowing{CASCorrelation: f64(1.0)} }, "cas_correlation"},
		{"zero room", func(s *Spec) { s.Shadowing = &Shadowing{RoomW: f64(0)} }, "room_w"},
		{"empty sweep", func(s *Spec) { s.Sweep = map[string][]float64{"clients": {}} }, "no values"},
		{"unknown sweep key", func(s *Spec) { s.Sweep = map[string][]float64{"gremlins": {1}} }, "unknown sweep key"},
		{"fractional sweep value", func(s *Spec) { s.Sweep = map[string][]float64{"clients": {2.5}} }, "integer"},
		{"zero sweep value", func(s *Spec) { s.Sweep = map[string][]float64{"clients": {0}} }, ">= 1"},
		{"zero swept seed", func(s *Spec) { s.Sweep = map[string][]float64{"seed": {0, 5}} }, "inherit"},
		{"swept seed past 2^53", func(s *Spec) { s.Sweep = map[string][]float64{"seed": {1 << 53, 5}} }, "out of range"},
		{"negative swept seed past 2^53", func(s *Spec) { s.Sweep = map[string][]float64{"seed": {-(1 << 53)}} }, "out of range"},
		{"huge swept seed", func(s *Spec) { s.Sweep = map[string][]float64{"seed": {1e300}} }, "out of range"},
		{"explosive sweep", func(s *Spec) {
			s.Sweep = map[string][]float64{"clients": manyVals(20), "antennas": manyVals(20)}
		}, "max"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base spec must validate, got %v", err)
	}
	edge := base()
	edge.Sweep = map[string][]float64{"seed": {-(1<<53 - 1), -5, 1<<53 - 1}}
	if err := edge.Validate(); err != nil {
		t.Errorf("swept seeds within ±(2^53-1) must validate, got %v", err)
	}
}

func manyVals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestMerge verifies zero fields inherit and set fields override, and
// that the merge never aliases pointer state between specs.
func TestMerge(t *testing.T) {
	base := fullSpec()
	merged := base.Merge(Spec{})
	if !reflect.DeepEqual(merged, base) {
		t.Errorf("empty overlay changed the spec:\n got %+v\nwant %+v", merged, base)
	}

	over := Spec{Clients: 16, Seed: 99, Shadowing: &Shadowing{SigmaDB: f64(9)}}
	merged = base.Merge(over)
	if merged.Clients != 16 || merged.Seed != 99 {
		t.Errorf("overlay fields lost: %+v", merged)
	}
	if merged.Topologies != base.Topologies || merged.Venue.Width != 104 {
		t.Errorf("inherited fields lost: %+v", merged)
	}
	if *merged.Shadowing.SigmaDB != 9 {
		t.Errorf("shadowing overlay lost: %+v", merged.Shadowing)
	}
	if *merged.Shadowing.WallDB != 7 {
		t.Errorf("shadowing base fields must survive a partial overlay: %+v", merged.Shadowing)
	}
	// Mutating the merge result must not touch either input.
	*merged.Shadowing.WallDB = 123
	merged.Sweep["clients"][0] = 42
	if *base.Shadowing.WallDB != 7 || base.Sweep["clients"][0] != 2 {
		t.Error("Merge aliases pointer state with its inputs")
	}
}

// TestExpand verifies the sweep cross-product: sorted key order,
// value order preserved, replicates left to the engine's replication
// layer, and stable labels.
func TestExpand(t *testing.T) {
	s := Spec{
		Topologies: 2, Seed: 10, Antennas: 4, Clients: 4, Replicates: 1,
		Sweep: map[string][]float64{"clients": {2, 8}, "antennas": {4}},
	}
	runs := s.expand()
	var labels []string
	for _, r := range runs {
		labels = append(labels, r.Label)
		if r.Spec.Sweep != nil || r.Spec.Replicates != 1 {
			t.Errorf("expanded run %q must be concrete: %+v", r.Label, r.Spec)
		}
	}
	want := []string{"antennas=4,clients=2", "antennas=4,clients=8"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	if runs[1].Spec.Clients != 8 || runs[1].Spec.Antennas != 4 {
		t.Errorf("sweep values not applied: %+v", runs[1].Spec)
	}

	// Replicates are not unrolled by expand: the engine fans each sweep
	// point through replicateSpecs and merges the results, so a
	// replicated unswept spec is still a single (unlabelled) point.
	s = Spec{Topologies: 1, Seed: 10, Antennas: 1, Clients: 1, Replicates: 3}
	runs = s.expand()
	if len(runs) != 1 || runs[0].Label != "" {
		t.Fatalf("3 replicates must stay one sweep point, got %d runs (label %q)", len(runs), runs[0].Label)
	}
	if runs[0].Spec.Replicates != 3 {
		t.Errorf("sweep point must keep its replicate count, got %+v", runs[0].Spec)
	}

	s = Spec{Topologies: 1, Seed: 10, Antennas: 1, Clients: 1, Replicates: 1}
	runs = s.expand()
	if len(runs) != 1 || runs[0].Label != "" {
		t.Errorf("plain spec must expand to one unlabelled run, got %+v", runs)
	}

	// A single-value sweep still expands to one *labelled* run, so its
	// output schema matches the multi-value case.
	s = Spec{Topologies: 1, Seed: 10, Antennas: 4, Clients: 4, Replicates: 1,
		Sweep: map[string][]float64{"clients": {8}}}
	runs = s.expand()
	if len(runs) != 1 || runs[0].Label != "clients=8" {
		t.Errorf("single-value sweep must keep its label, got %+v", runs)
	}

	// The "size" key sets antennas and clients together.
	s = Spec{Topologies: 1, Seed: 10, Antennas: 4, Clients: 4, Replicates: 1,
		Sweep: map[string][]float64{"size": {2}}}
	runs = s.expand()
	if runs[0].Spec.Antennas != 2 || runs[0].Spec.Clients != 2 {
		t.Errorf("size sweep must set antennas and clients, got %+v", runs[0].Spec)
	}
}

// FuzzSpecRoundTrip feeds arbitrary JSON at the decoder: anything it
// accepts must survive a marshal→decode cycle unchanged.
func FuzzSpecRoundTrip(f *testing.F) {
	seedSpecs := []Spec{fullSpec(), {}, {Topologies: 3, Sweep: map[string][]float64{"seed": {1, 2}}}}
	for _, s := range seedSpecs {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(`{"simtime": "1h3s"}`)
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := DecodeSpec(strings.NewReader(raw))
		if err != nil {
			t.Skip()
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v (%+v)", err, s)
		}
		again, err := DecodeSpec(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("own marshal failed to decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("round trip not stable:\nfirst  %+v\nsecond %+v\njson %s", s, again, b)
		}
	})
}

// A sweep whose cross-product overflows int must still be rejected:
// the running-product guard has to bail before wrapping, because specs
// now arrive over the network (midas-serve), not just from trusted
// files.
func TestValidateRejectsOverflowingSweepProduct(t *testing.T) {
	vals := func(n int, offset float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = offset + float64(i) + 1
		}
		return out
	}
	s := Spec{
		Topologies: 1, Antennas: 1, Clients: 1, Replicates: 1,
		Sweep: map[string][]float64{
			// 1500^6 ≈ 1.1e19 > MaxInt64: a naive product wraps.
			"clients":    vals(1500, 0),
			"antennas":   vals(1500, 0),
			"size":       vals(1500, 0),
			"topologies": vals(1500, 0),
			"seed":       vals(1500, 0),
			"aps":        vals(1500, 0),
		},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("overflowing sweep cross-product validated")
	}
	// Replicates overflow through the same product.
	r := Spec{Topologies: 1, Antennas: 1, Clients: 1,
		Replicates: 1 << 60,
		Sweep:      map[string][]float64{"seed": vals(8, 0)}}
	if err := r.Validate(); err == nil {
		t.Fatal("overflowing replicate product validated")
	}
}
