package sim

import (
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frames"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/topology"
)

// testbedNetwork is a three-AP network whose cells overhear each other,
// so TXOPs collide and sample other-cell interference. The traffic mix
// puts every access category on the air.
func testbedNetwork(kind Kind, seed int64) *Network {
	mode := topology.DAS
	if kind == KindCAS {
		mode = topology.CAS
	}
	p := channel.Default()
	dep := topology.ThreeAPTestbed(topology.DefaultConfig(mode), rng.New(seed))
	src := OverhearingSource(dep, p, rng.New(seed+1), 16)
	EnsureAssociated(dep, p, src.Split("model"))
	opts := DefaultStationOpts(kind)
	opts.TrafficMix = map[mac.AccessCategory]float64{
		mac.ACVoice: 1, mac.ACVideo: 1, mac.ACBestEffort: 2, mac.ACBackground: 1,
	}
	return NewNetwork(dep, p, opts, src)
}

// TestTXOPZeroAlloc drives warmed MIDAS and CAS stations through whole
// TXOPs (grant → sounding → data → rates → finish), with their
// neighbours contending, colliding and setting NAVs around them, and
// requires the steady state to allocate nothing.
func TestTXOPZeroAlloc(t *testing.T) {
	for _, kind := range []Kind{KindMIDAS, KindCAS} {
		t.Run(kind.String(), func(t *testing.T) {
			net := testbedNetwork(kind, 61)
			for _, st := range net.Stations {
				st.Start()
			}
			net.Eng.Run(200 * time.Millisecond) // warm every buffer up
			st := net.Stations[0]
			txop := func() {
				for before := st.TXOPs; st.TXOPs == before; {
					net.Eng.Run(net.Eng.Now() + 100*time.Microsecond)
				}
			}
			before, bits := st.TXOPs, st.BitsPerHz
			if allocs := testing.AllocsPerRun(100, txop); allocs != 0 {
				t.Errorf("a steady-state TXOP allocates %v times, want 0", allocs)
			}
			if st.TXOPs < before+101 || st.BitsPerHz <= bits {
				t.Errorf("ran %d TXOPs delivering %v bit/Hz, want 101 and some", st.TXOPs-before, st.BitsPerHz-bits)
			}
		})
	}
}

// TestStationTransmissionsNeverOverlap pins the invariant a station's
// own-frame check rests on: a station starts a transmission only after
// its previous one has ended, so its last transmission id is the only
// one of its own that can reach its listeners.
func TestStationTransmissionsNeverOverlap(t *testing.T) {
	for _, kind := range []Kind{KindMIDAS, KindCAS} {
		t.Run(kind.String(), func(t *testing.T) {
			net := testbedNetwork(kind, 71)
			type span struct{ start, end time.Duration }
			sent := map[frames.Addr][]span{}
			var parser frames.Parser
			net.Air.Listen(mac.Listener{Pos: net.Dep.APs[0], Fn: func(rx mac.Rx) {
				f, err := parser.Parse(rx.Data)
				if err != nil {
					t.Fatalf("undecodable frame on the air: %v", err)
				}
				var ta frames.Addr
				switch f := f.(type) {
				case *frames.NDPA:
					ta = f.TA
				case *frames.QoSData:
					ta = f.TA
				default:
					t.Fatalf("unexpected %T on the air", f)
				}
				sent[ta] = append(sent[ta], span{rx.Start, rx.End})
			}})
			net.Run(300 * time.Millisecond)
			if len(sent) != len(net.Stations) {
				t.Fatalf("heard %d transmitters, want %d", len(sent), len(net.Stations))
			}
			for ta, spans := range sent {
				sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
				for i := 1; i < len(spans); i++ {
					if spans[i].start < spans[i-1].end {
						t.Fatalf("%v started a transmission at %v while its previous one (%v–%v) was on the air",
							ta, spans[i].start, spans[i-1].start, spans[i-1].end)
					}
				}
			}
		})
	}
}
