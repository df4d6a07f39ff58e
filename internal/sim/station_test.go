package sim

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

func buildStation(t *testing.T, opts StationOpts) *Station {
	t.Helper()
	cfg := topology.DefaultConfig(topology.DAS)
	dep := topology.SingleAP(cfg, rng.New(21))
	net := NewNetwork(dep, channel.Default(), opts, rng.New(22))
	return net.Stations[0]
}

func TestStationTagWidthPlumbing(t *testing.T) {
	opts := DefaultStationOpts(KindMIDAS)
	opts.TagWidth = 3
	st := buildStation(t, opts)
	if st.midas.Cfg.TagWidth != 3 {
		t.Errorf("TagWidth = %d, want 3", st.midas.Cfg.TagWidth)
	}
	// Queued packets carry three tags.
	p, ok := st.midas.Queue.Head(st.clients[0])
	if !ok {
		t.Fatal("queue empty")
	}
	if len(p.Tags) != 3 {
		t.Errorf("packet tags = %v", p.Tags)
	}
}

func TestStationTaggingOffMeansUntagged(t *testing.T) {
	opts := DefaultStationOpts(KindMIDAS)
	opts.Tagging = false
	st := buildStation(t, opts)
	p, ok := st.midas.Queue.Head(st.clients[0])
	if !ok {
		t.Fatal("queue empty")
	}
	if len(p.Tags) != 0 {
		t.Errorf("tagging off but packet has tags %v", p.Tags)
	}
}

func TestStationWaitWindowPlumbing(t *testing.T) {
	opts := DefaultStationOpts(KindMIDAS)
	opts.WaitWindow = 99 * time.Microsecond
	opts.HasWaitWindow = true
	st := buildStation(t, opts)
	if st.midas.Cfg.WaitWindow != 99*time.Microsecond {
		t.Errorf("WaitWindow = %v", st.midas.Cfg.WaitWindow)
	}
}

func TestStationSchedulerNamePlumbing(t *testing.T) {
	for _, name := range []string{"rr", "random"} {
		opts := DefaultStationOpts(KindMIDAS)
		opts.SchedulerName = name
		st := buildStation(t, opts)
		switch name {
		case "rr":
			if _, ok := st.midas.Cfg.Scheduler.(*core.RoundRobinScheduler); !ok {
				t.Errorf("scheduler for %q is %T", name, st.midas.Cfg.Scheduler)
			}
		case "random":
			if _, ok := st.midas.Cfg.Scheduler.(*core.RandomScheduler); !ok {
				t.Errorf("scheduler for %q is %T", name, st.midas.Cfg.Scheduler)
			}
		}
	}
}

func TestStationQueueDepthMaintained(t *testing.T) {
	opts := DefaultStationOpts(KindMIDAS)
	opts.QueueDepth = 5
	st := buildStation(t, opts)
	for _, cl := range st.clients {
		if got := st.midas.Queue.LenFor(cl); got != 5 {
			t.Errorf("client %d queue depth %d, want 5", cl, got)
		}
	}
}

func TestEnsureAssociatedReachability(t *testing.T) {
	p := channel.Default()
	cfg := topology.DefaultConfig(topology.CAS)
	src := rng.New(31)
	dep := topology.SingleAP(cfg, src.Split("topo"))
	modelSrc := src.Split("model")
	EnsureAssociated(dep, p, modelSrc)
	b := channel.Budget{P: p, Field: p.NewField(modelSrc.Split("shadow").Seed())}
	noise := p.NoiseLinear()
	for j, c := range dep.Clients {
		best := -1e18
		for _, k := range dep.AntennasOf(dep.ClientAP[j]) {
			if snr := stats.DB(b.Power(dep.Antennas[k].Pos, c) / noise); snr > best {
				best = snr
			}
		}
		if best < MinAssocSNRdB-1e-9 {
			// Resampling is best-effort (200 tries); tolerate rare misses
			// but flag systematic failure.
			t.Logf("client %d unreachable after association (best %.1f dB)", j, best)
		}
	}
}

func TestOverhearingSourceFindsPlan(t *testing.T) {
	p := channel.Default()
	dep := topology.ThreeAPTestbed(topology.DefaultConfig(topology.CAS), rng.New(41))
	src := OverhearingSource(dep, p, rng.New(42), 64)
	f := p.NewField(src.Split("model").Split("shadow").Seed())
	if !allPairsOverhear(dep, channel.Budget{P: p, Field: f}) {
		t.Error("OverhearingSource returned a non-overhearing plan (possible but should be rare at 15 m)")
	}
}
