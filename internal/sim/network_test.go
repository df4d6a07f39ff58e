package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

func runNetwork(t *testing.T, mode topology.Mode, kind Kind, seed int64, dur time.Duration) *Network {
	t.Helper()
	cfg := topology.DefaultConfig(mode)
	dep := topology.ThreeAPTestbed(cfg, rng.New(seed))
	net := NewNetwork(dep, channel.Default(), DefaultStationOpts(kind), rng.New(seed+500))
	net.Run(dur)
	return net
}

func TestCASNetworkDeliversTraffic(t *testing.T) {
	net := runNetwork(t, topology.CAS, KindCAS, 1, 300*time.Millisecond)
	if net.TotalTXOPs() == 0 {
		t.Fatal("no TXOPs completed")
	}
	if net.NetworkCapacity() <= 0 {
		t.Fatal("no capacity delivered")
	}
	if g := float64(net.TotalStreams()) / float64(net.TotalTXOPs()); g < 1 || g > 4 {
		t.Errorf("mean group size = %v", g)
	}
}

func TestMIDASNetworkDeliversTraffic(t *testing.T) {
	net := runNetwork(t, topology.DAS, KindMIDAS, 1, 300*time.Millisecond)
	if net.TotalTXOPs() == 0 {
		t.Fatal("no TXOPs completed")
	}
	if net.NetworkCapacity() <= 0 {
		t.Fatal("no capacity delivered")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	a := runNetwork(t, topology.DAS, KindMIDAS, 7, 200*time.Millisecond)
	b := runNetwork(t, topology.DAS, KindMIDAS, 7, 200*time.Millisecond)
	if a.NetworkCapacity() != b.NetworkCapacity() {
		t.Errorf("capacity differs across identical runs: %v vs %v",
			a.NetworkCapacity(), b.NetworkCapacity())
	}
	if a.TotalTXOPs() != b.TotalTXOPs() {
		t.Errorf("TXOP counts differ: %d vs %d", a.TotalTXOPs(), b.TotalTXOPs())
	}
}

func TestMIDASOutperformsCASEndToEnd(t *testing.T) {
	// The headline end-to-end claim, on a handful of seeds to keep the
	// unit test fast; Fig 15's full 60-topology version lives in the
	// experiments and benches.
	var casSum, midasSum float64
	for seed := int64(0); seed < 5; seed++ {
		cas := runNetwork(t, topology.CAS, KindCAS, seed, 300*time.Millisecond)
		midas := runNetwork(t, topology.DAS, KindMIDAS, seed, 300*time.Millisecond)
		casSum += cas.NetworkCapacity()
		midasSum += midas.NetworkCapacity()
	}
	if midasSum <= casSum {
		t.Errorf("MIDAS aggregate capacity %v should exceed CAS %v", midasSum, casSum)
	}
	t.Logf("aggregate capacity: MIDAS %.1f vs CAS %.1f (%.0f%% gain)",
		midasSum, casSum, 100*(midasSum/casSum-1))
}

func TestKindAndOfficeStrings(t *testing.T) {
	if KindMIDAS.String() != "MIDAS" || KindCAS.String() != "CAS" {
		t.Error("Kind names wrong")
	}
	if OfficeA.String() != "OfficeA" || OfficeB.String() != "OfficeB" {
		t.Error("Office names wrong")
	}
}

func TestCapacityZeroWhenIdle(t *testing.T) {
	cfg := topology.DefaultConfig(topology.CAS)
	dep := topology.SingleAP(cfg, rng.New(1))
	net := NewNetwork(dep, channel.Default(), DefaultStationOpts(KindCAS), rng.New(2))
	if net.TotalTXOPs() != 0 {
		t.Error("no TXOP should complete before the network runs")
	}
	if net.NetworkCapacity() != 0 {
		t.Error("capacity should be 0 at time 0")
	}
}

// TestNetworkSharesOneLinkTable builds topology 1 of a seed-1 Figure 15
// run's MIDAS network, as Fig15EndToEnd does, and checks the link table
// its model and medium share:
//   - OverhearingSource, EnsureAssociated and NewNetwork all see the floor
//     plan the model source's "shadow" split seeds: the network's field is
//     that one, OverhearingSource rejects the first candidate exactly when
//     that candidate's plan fails to overhear, and EnsureAssociated
//     redraws a client exactly when the plan leaves it unreachable;
//   - after a run, every link between the network's positions (the ones
//     the model and the medium filled among them) equals the direct
//     budget bit for bit, the table holds no other site, and the medium
//     reads the same values;
//   - every MeanRxPower equals txPow·pathGain·shadow bit for bit.
func TestNetworkSharesOneLinkTable(t *testing.T) {
	var o Opts
	p := o.params()
	src := rng.New(1).SplitN("fig15", 1)
	dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
	field := func(run int64) *channel.ShadowField {
		return p.NewField(rng.New(run).Split("model").Split("shadow").Seed())
	}
	runSrc := src.Split("runM")
	run := OverhearingSource(dep, p, runSrc, 64)
	first := rng.SplitNSeed(runSrc.Seed(), "overhear", 0)
	if run.Seed() == first || allPairsOverhear(dep, channel.Budget{P: p, Field: field(first)}) {
		t.Fatal("OverhearingSource kept or rejected its first candidate against that candidate's floor plan")
	}
	f := field(run.Seed())
	b := channel.Budget{P: p, Field: f}
	if !allPairsOverhear(dep, b) {
		t.Fatal("OverhearingSource chose a plan whose APs do not overhear")
	}
	reachable := func(j int) bool {
		for _, k := range dep.AntennasOf(dep.ClientAP[j]) {
			if stats.DB(b.Power(dep.Antennas[k].Pos, dep.Clients[j])/p.NoiseLinear()) >= MinAssocSNRdB {
				return true
			}
		}
		return false
	}
	drawn := slices.Clone(dep.Clients)
	var unreachable []int
	for j := range dep.Clients {
		if !reachable(j) {
			unreachable = append(unreachable, j)
		}
	}
	EnsureAssociated(dep, p, run.Split("model"))
	var moved []int
	for j := range dep.Clients {
		if dep.Clients[j] != drawn[j] {
			moved = append(moved, j)
		}
		if !reachable(j) {
			t.Errorf("client %d unreachable after EnsureAssociated", j)
		}
	}
	if len(moved) == 0 || !slices.Equal(moved, unreachable) {
		t.Fatalf("EnsureAssociated moved clients %v, the plan leaves %v unreachable", moved, unreachable)
	}

	net := NewNetwork(dep, p, DefaultStationOpts(KindMIDAS), run)
	links := net.Model.Links()
	if *links.Field != *f {
		t.Fatal("the network's field is not the one its model source seeds")
	}
	net.Run(50 * time.Millisecond)
	if net.TotalTXOPs() == 0 {
		t.Fatal("no TXOPs: the medium read nothing")
	}
	var pos []geom.Point
	for _, a := range dep.Antennas {
		pos = append(pos, a.Pos)
	}
	pos = append(pos, dep.Clients...)
	if links.Sites() != len(pos) {
		t.Fatalf("table holds %d sites, the network has %d positions", links.Sites(), len(pos))
	}
	bits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, direct %v", what, got, want)
		}
	}
	direct := func(x, y geom.Point) float64 { return p.PowerAtPoint(x, y, p.TxPowerDBm) * f.Shadow(x, y) }
	for _, x := range pos {
		for _, y := range pos {
			bits(fmt.Sprintf("link %v–%v", x, y), links.Power(links.Site(x), links.Site(y)), direct(x, y))
		}
	}
	// The medium reads that table: one antenna's transmission reaches
	// every position at exactly the direct budget.
	for _, a := range dep.Antennas {
		id, err := net.Air.StartTx(mac.Tx{Antennas: []int{links.Site(a.Pos)}, Airtime: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range pos {
			bits(fmt.Sprintf("medium %v–%v", a.Pos, x), net.Air.TxSignalAt(id, links.Site(x)), direct(a.Pos, x))
		}
	}
	for j, c := range dep.Clients {
		for k, a := range dep.Antennas {
			pathGain := stats.Linear(-p.PathLossDB(a.Pos.Dist(c)))
			bits(fmt.Sprintf("MeanRxPower(%d, %d)", j, k), net.Model.MeanRxPower(j, k), p.TxPowerLinear()*pathGain*f.Shadow(a.Pos, c))
		}
	}
}
