package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mac"
)

func TestQueuePushPop(t *testing.T) {
	q := NewQueue()
	q.Push(Packet{Client: 1, Size: 100})
	q.Push(Packet{Client: 1, Size: 200})
	q.Push(Packet{Client: 2, Size: 300})
	if q.Len() != 3 || q.LenFor(1) != 2 {
		t.Fatalf("Len=%d LenFor(1)=%d", q.Len(), q.LenFor(1))
	}
	p, ok := q.Pop(1)
	if !ok || p.Size != 100 {
		t.Errorf("FIFO violated: %+v", p)
	}
	if q.Len() != 2 {
		t.Errorf("Len after pop = %d", q.Len())
	}
	if _, ok := q.Pop(9); ok {
		t.Error("pop from empty client should fail")
	}
}

func TestQueueSeqAssignment(t *testing.T) {
	q := NewQueue()
	q.Push(Packet{Client: 1})
	q.Push(Packet{Client: 1})
	a, _ := q.Pop(1)
	b, _ := q.Pop(1)
	if a.Seq == b.Seq {
		t.Error("sequence numbers should differ")
	}
}

func TestQueueBackloggedDeterministic(t *testing.T) {
	q := NewQueue()
	q.Push(Packet{Client: 3})
	q.Push(Packet{Client: 0})
	q.Push(Packet{Client: 7})
	if got := q.Backlogged(); !reflect.DeepEqual(got, []int{0, 3, 7}) {
		t.Errorf("Backlogged = %v", got)
	}
	q.Pop(0)
	if got := q.Backlogged(); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Errorf("Backlogged = %v", got)
	}
}

func TestQueueEligibleFor(t *testing.T) {
	q := NewQueue()
	q.Push(Packet{Client: 0, Tags: []int{10, 11}})
	q.Push(Packet{Client: 1, Tags: []int{11, 12}})
	q.Push(Packet{Client: 2, Tags: nil}) // untagged: eligible everywhere
	if got := q.EligibleFor(10); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("EligibleFor(10) = %v", got)
	}
	if got := q.EligibleFor(11); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("EligibleFor(11) = %v", got)
	}
	if got := q.EligibleFor(99); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("EligibleFor(99) = %v", got)
	}
}

func TestDRRSelectLargestDeficit(t *testing.T) {
	d := NewDRR()
	d.Charge([]int{0}, []int{0, 1, 2}, 10*time.Millisecond)
	// Client 0 served (-10ms); 1 and 2 got +5ms each.
	if c, ok := d.Select([]int{0, 1, 2}); !ok || c != 1 {
		t.Errorf("Select = %d (tie should break low)", c)
	}
	if _, ok := d.Select(nil); ok {
		t.Error("empty eligible should fail")
	}
}

func TestDRRChargeConservation(t *testing.T) {
	d := NewDRR()
	txop := 4 * time.Millisecond
	d.Charge([]int{0, 1}, []int{0, 1, 2, 3}, txop)
	// Served pay 2 × 4ms; unserved gain 2·4/2 = 4ms each → sum zero.
	sum := 0.0
	for c := 0; c < 4; c++ {
		sum += d.Deficit(c)
	}
	if sum > 1e-12 || sum < -1e-12 {
		t.Errorf("deficit sum = %v, want 0", sum)
	}
	if d.Deficit(2) != d.Deficit(3) {
		t.Error("unserved clients should gain equally")
	}
}

func TestDRRAllServedNoCredit(t *testing.T) {
	d := NewDRR()
	d.Charge([]int{0, 1}, []int{0, 1}, time.Millisecond)
	if d.Deficit(0) >= 0 {
		t.Error("served clients should have negative deficit")
	}
}

func TestDRRLongRunFairness(t *testing.T) {
	// Simulate many TXOPs serving 2 of 4 clients by largest deficit: all
	// clients should receive service within a bounded spread.
	d := NewDRR()
	all := []int{0, 1, 2, 3}
	servedCount := map[int]int{}
	for round := 0; round < 1000; round++ {
		var served []int
		chosen := map[int]bool{}
		for i := 0; i < 2; i++ {
			var elig []int
			for _, c := range all {
				if !chosen[c] {
					elig = append(elig, c)
				}
			}
			c, _ := d.Select(elig)
			chosen[c] = true
			served = append(served, c)
		}
		for _, c := range served {
			servedCount[c]++
		}
		d.Charge(served, all, time.Millisecond)
	}
	min, max := 1<<30, 0
	for _, c := range all {
		if servedCount[c] < min {
			min = servedCount[c]
		}
		if servedCount[c] > max {
			max = servedCount[c]
		}
	}
	if max-min > 10 {
		t.Errorf("long-run unfairness: counts %v", servedCount)
	}
}

func TestRoundRobinScheduler(t *testing.T) {
	s := NewRoundRobinScheduler()
	elig := []int{0, 1, 2}
	got := []int{s.Pick(elig), s.Pick(elig), s.Pick(elig), s.Pick(elig)}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 0}) {
		t.Errorf("RR order = %v", got)
	}
}

func TestRandomScheduler(t *testing.T) {
	s := &RandomScheduler{Intn: func(n int) int { return n - 1 }}
	if got := s.Pick([]int{4, 5, 6}); got != 6 {
		t.Errorf("Pick = %d", got)
	}
}

// fakeRSSI implements RSSIProvider with a fixed power table.
type fakeRSSI map[[2]int]float64

func (f fakeRSSI) MeanRxPower(client, antenna int) float64 {
	return f[[2]int{client, antenna}]
}

func TestTagAntennas(t *testing.T) {
	rssi := fakeRSSI{
		{0, 10}: 1.0, {0, 11}: 5.0, {0, 12}: 3.0, {0, 13}: 0.5,
	}
	got := TagAntennas(rssi, 0, []int{10, 11, 12, 13}, 2)
	if !reflect.DeepEqual(got, []int{11, 12}) {
		t.Errorf("tags = %v, want [11 12]", got)
	}
	if got := TagAntennas(rssi, 0, []int{10, 11}, 5); len(got) != 2 {
		t.Errorf("tag width should clamp: %v", got)
	}
	if got := TagAntennas(rssi, 0, nil, 2); got != nil {
		t.Errorf("no antennas: %v", got)
	}
	if got := TagAntennas(rssi, 0, []int{10}, 0); got != nil {
		t.Errorf("zero width: %v", got)
	}
}

func TestTagAntennasTieBreak(t *testing.T) {
	rssi := fakeRSSI{{0, 3}: 1.0, {0, 1}: 1.0, {0, 2}: 1.0}
	got := TagAntennas(rssi, 0, []int{3, 1, 2}, 2)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("tie-break = %v, want [1 2]", got)
	}
}

func newTestController(rssi RSSIProvider) *Controller {
	cfg := DefaultConfig([]int{100, 101, 102, 103})
	return NewController(cfg, rssi)
}

func TestControllerLocalIndex(t *testing.T) {
	c := newTestController(nil)
	if i, ok := c.LocalIndex(102); !ok || i != 2 {
		t.Errorf("LocalIndex(102) = %d,%v", i, ok)
	}
	if _, ok := c.LocalIndex(999); ok {
		t.Error("foreign antenna should not resolve")
	}
}

func TestControllerNAVPerAntenna(t *testing.T) {
	c := newTestController(nil)
	c.UpdateNAV(100, 500*time.Microsecond)
	c.UpdateNAV(999, time.Second) // foreign antenna ignored
	if !c.Navs.Busy(0, 0) {
		t.Error("antenna 0 NAV should be set")
	}
	for k := 1; k < 4; k++ {
		if c.Navs.Busy(k, 0) {
			t.Errorf("antenna %d NAV should be clear", k)
		}
	}
}

func TestSelectAntennasAllIdle(t *testing.T) {
	c := newTestController(nil)
	ants, wait := c.SelectAntennas(101, 0, nil)
	if !reflect.DeepEqual(ants, []int{100, 101, 102, 103}) {
		t.Errorf("antennas = %v", ants)
	}
	if wait != 0 {
		t.Errorf("wait = %v, want 0", wait)
	}
}

func TestSelectAntennasOpportunisticWait(t *testing.T) {
	c := newTestController(nil)
	now := 100 * time.Microsecond
	// Antenna 1 busy, expiring within DIFS; antenna 2 busy far beyond.
	c.UpdateNAV(101, now+20*time.Microsecond)
	c.UpdateNAV(102, now+10*time.Millisecond)
	ants, wait := c.SelectAntennas(100, now, nil)
	// 100 (winner, idle), 103 (idle), 101 (expiring soon). 102 excluded.
	if !reflect.DeepEqual(ants, []int{100, 103, 101}) {
		t.Errorf("antennas = %v, want [100 103 101]", ants)
	}
	if wait != now+20*time.Microsecond {
		t.Errorf("wait = %v, want %v", wait, now+20*time.Microsecond)
	}
}

func TestSelectAntennasOrderIsNAVExpiry(t *testing.T) {
	c := newTestController(nil)
	now := time.Millisecond
	c.UpdateNAV(100, now+30*time.Microsecond)
	c.UpdateNAV(103, now+10*time.Microsecond)
	ants, _ := c.SelectAntennas(101, now, nil)
	// Idle first (101, 102 with expiry 0 — ties by index), then 103, 100.
	if !reflect.DeepEqual(ants, []int{101, 102, 103, 100}) {
		t.Errorf("antennas = %v", ants)
	}
}

func TestSelectAntennasForeignWinner(t *testing.T) {
	c := newTestController(nil)
	ants, _ := c.SelectAntennas(999, 0, nil)
	if ants != nil {
		t.Errorf("foreign winner should yield nil, got %v", ants)
	}
}

func TestSelectAntennasMaxStreams(t *testing.T) {
	cfg := DefaultConfig([]int{100, 101, 102, 103})
	cfg.MaxStreams = 2
	c := NewController(cfg, nil)
	ants, _ := c.SelectAntennas(100, 0, nil)
	if len(ants) != 2 {
		t.Errorf("antennas = %v, want 2", ants)
	}
}

func TestEnqueueTagsPackets(t *testing.T) {
	rssi := fakeRSSI{
		{5, 100}: 0.1, {5, 101}: 9.0, {5, 102}: 4.0, {5, 103}: 2.0,
	}
	c := newTestController(rssi)
	c.Enqueue(Packet{Client: 5, Size: 100})
	p, ok := c.Queue.Head(5)
	if !ok {
		t.Fatal("packet not queued")
	}
	if !reflect.DeepEqual(p.Tags, []int{101, 102}) {
		t.Errorf("tags = %v, want [101 102]", p.Tags)
	}
}

// countingRSSI counts the mean-power lookups a ranking makes.
type countingRSSI struct {
	fakeRSSI
	calls map[int]int
}

func (c countingRSSI) MeanRxPower(client, antenna int) float64 {
	c.calls[client]++
	return c.fakeRSSI.MeanRxPower(client, antenna)
}

// TestEnqueueRanksEachClientOnce pins the tag cache: a client is ranked
// on its first packet only, later packets reuse that ranking, and each
// client keeps its own tags.
func TestEnqueueRanksEachClientOnce(t *testing.T) {
	rssi := countingRSSI{
		fakeRSSI: fakeRSSI{
			{0, 100}: 9, {0, 101}: 8, {0, 102}: 1, {0, 103}: 1,
			{1, 100}: 1, {1, 101}: 1, {1, 102}: 9, {1, 103}: 8,
		},
		calls: map[int]int{},
	}
	c := newTestController(rssi)
	for i := 0; i < 3; i++ {
		c.Enqueue(Packet{Client: 0})
		c.Enqueue(Packet{Client: 1})
	}
	first := rssi.calls[0]
	if first == 0 {
		t.Fatal("client 0 was never ranked")
	}
	c.Enqueue(Packet{Client: 0})
	if rssi.calls[0] != first {
		t.Errorf("client 0 re-ranked: %d lookups, want %d", rssi.calls[0], first)
	}
	for cl, want := range map[int][]int{0: {100, 101}, 1: {102, 103}} {
		for c.Queue.LenFor(cl) > 0 {
			p, _ := c.Queue.Pop(cl)
			if !reflect.DeepEqual(p.Tags, want) {
				t.Fatalf("client %d tags = %v, want %v", cl, p.Tags, want)
			}
		}
	}
}

func TestSelectClientsRespectsTagsAndDistinctness(t *testing.T) {
	rssi := fakeRSSI{
		// client 0 prefers antennas 100,101; client 1 prefers 101,102;
		// client 2 prefers 102,103; client 3 prefers 103,100.
		{0, 100}: 9, {0, 101}: 8, {0, 102}: 1, {0, 103}: 1,
		{1, 100}: 1, {1, 101}: 9, {1, 102}: 8, {1, 103}: 1,
		{2, 100}: 1, {2, 101}: 1, {2, 102}: 9, {2, 103}: 8,
		{3, 100}: 8, {3, 101}: 1, {3, 102}: 1, {3, 103}: 9,
	}
	c := newTestController(rssi)
	for cl := 0; cl < 4; cl++ {
		c.Enqueue(Packet{Client: cl, Size: 1500})
	}
	clients := c.SelectClientsEDCA([]int{100, 101, 102, 103}, mac.ACBestEffort)
	if len(clients) != 4 {
		t.Fatalf("clients = %v, want 4 distinct", clients)
	}
	seen := map[int]bool{}
	for _, cl := range clients {
		if seen[cl] {
			t.Fatalf("client %d selected twice", cl)
		}
		seen[cl] = true
	}
}

func TestSelectClientsTagFilteringExcludes(t *testing.T) {
	rssi := fakeRSSI{
		{0, 100}: 9, {0, 101}: 8, {0, 102}: 1, {0, 103}: 1,
	}
	c := newTestController(rssi)
	c.Enqueue(Packet{Client: 0, Size: 100})
	// Only antennas 102,103 available: client 0's tags (100,101) miss.
	clients := c.SelectClientsEDCA([]int{102, 103}, mac.ACBestEffort)
	if len(clients) != 0 {
		t.Errorf("clients = %v, want none (tag filter)", clients)
	}
	// With a tagged antenna available it is selected.
	clients = c.SelectClientsEDCA([]int{101, 102}, mac.ACBestEffort)
	if !reflect.DeepEqual(clients, []int{0}) {
		t.Errorf("clients = %v, want [0]", clients)
	}
}

func TestDequeueAndFinishTXOP(t *testing.T) {
	rssi := fakeRSSI{{0, 100}: 2, {0, 101}: 1, {1, 100}: 2, {1, 101}: 1}
	c := newTestController(rssi)
	c.Enqueue(Packet{Client: 0, Size: 100})
	c.Enqueue(Packet{Client: 1, Size: 200})
	c.Dequeue([]int{0})
	if c.Queue.LenFor(0) != 0 || c.Queue.LenFor(1) != 1 {
		t.Fatalf("after Dequeue: LenFor(0)=%d LenFor(1)=%d, want 0 and 1", c.Queue.LenFor(0), c.Queue.LenFor(1))
	}
	c.FinishTXOP([]int{0}, 2*time.Millisecond)
	d := c.Cfg.Scheduler.(*DRRScheduler).D
	if d.Deficit(0) >= 0 {
		t.Error("served client deficit should be negative")
	}
	if d.Deficit(1) <= 0 {
		t.Error("unserved backlogged client should gain deficit")
	}
}

func TestCASControllerSingleNAV(t *testing.T) {
	c := NewCASController([]int{0, 1, 2, 3}, nil, 0)
	c.UpdateNAV(2, 100*time.Microsecond)
	if !c.NAVBusy(50 * time.Microsecond) {
		t.Error("CAS NAV should be busy")
	}
	if c.NAVBusy(200 * time.Microsecond) {
		t.Error("CAS NAV should expire")
	}
	if c.NAVExpiry() != 100*time.Microsecond {
		t.Errorf("expiry = %v", c.NAVExpiry())
	}
}

func TestCASSelectAllAntennas(t *testing.T) {
	c := NewCASController([]int{7, 8, 9}, nil, 0)
	if got := c.SelectAntennas(); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Errorf("antennas = %v", got)
	}
}

func TestCASSelectClients(t *testing.T) {
	c := NewCASController([]int{0, 1, 2, 3}, nil, 0)
	for cl := 0; cl < 6; cl++ {
		c.Enqueue(Packet{Client: cl, Size: 100})
	}
	clients := c.SelectClientsEDCA(mac.ACBestEffort)
	if len(clients) != 4 {
		t.Fatalf("clients = %v, want 4 (maxStreams)", clients)
	}
	seen := map[int]bool{}
	for _, cl := range clients {
		if seen[cl] {
			t.Fatal("duplicate client")
		}
		seen[cl] = true
	}
	// Untagged packets are eligible on all antennas.
	c.Dequeue(clients)
	if c.Queue.Len() != 2 {
		t.Errorf("after Dequeue: %d packets queued, want 2", c.Queue.Len())
	}
	c.FinishTXOP(clients, time.Millisecond)
}

func TestCASMaxStreamsCap(t *testing.T) {
	c := NewCASController([]int{0, 1}, nil, 5)
	for cl := 0; cl < 4; cl++ {
		c.Enqueue(Packet{Client: cl})
	}
	if got := c.SelectClientsEDCA(mac.ACBestEffort); len(got) != 2 {
		t.Errorf("clients = %v, want 2 (antenna count)", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig([]int{1, 2})
	if cfg.TagWidth != 2 || cfg.WaitWindow != mac.DIFS || cfg.MaxStreams != 2 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	if cfg.Scheduler == nil {
		t.Error("nil scheduler")
	}
}
