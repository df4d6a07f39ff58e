package sim

import (
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
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
			// sender maps each transmission id to the station that
			// started it, read from every station's txID after each
			// 1 µs step of the engine. Every airtime is longer than a
			// step, so a transmission is attributed before it ends; a
			// station that started two in one step would leave the
			// first unattributed and fail the test.
			sender := map[int]int{}
			sent := make([][]span, len(net.Stations))
			net.Air.Listen(mac.Listener{Pos: net.Dep.APs[0], Fn: func(rx mac.Rx) {
				st, ok := sender[rx.From]
				if !ok {
					t.Fatalf("transmission %d reached a listener but no station's txID ever named it", rx.From)
				}
				sent[st] = append(sent[st], span{rx.Start, rx.End})
			}})
			for _, st := range net.Stations {
				st.Start()
			}
			for end := net.Eng.Now() + 300*time.Millisecond; net.Eng.Now() < end; {
				net.Eng.Run(net.Eng.Now() + time.Microsecond)
				for _, st := range net.Stations {
					if st.txID >= 0 {
						sender[st.txID] = st.ID
					}
				}
			}
			for st, spans := range sent {
				if len(spans) == 0 {
					t.Fatalf("station %d never transmitted", st)
				}
				sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
				for i := 1; i < len(spans); i++ {
					if spans[i].start < spans[i-1].end {
						t.Fatalf("station %d started a transmission at %v while its previous one (%v–%v) was on the air",
							st, spans[i].start, spans[i-1].start, spans[i-1].end)
					}
				}
			}
		})
	}
}
