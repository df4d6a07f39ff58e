package sim

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/rng"
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
