package core

import (
	"reflect"
	"testing"

	"repro/internal/mac"
)

func TestBackloggedByAC(t *testing.T) {
	q := NewQueue()
	q.Push(Packet{Client: 0, TID: 6}) // voice
	q.Push(Packet{Client: 1, TID: 5}) // video
	q.Push(Packet{Client: 2, TID: 0}) // best effort
	q.Push(Packet{Client: 3, TID: 1}) // background
	byAC := q.BackloggedByAC()
	if !reflect.DeepEqual(byAC[mac.ACVoice], []int{0}) {
		t.Errorf("voice = %v", byAC[mac.ACVoice])
	}
	if !reflect.DeepEqual(byAC[mac.ACVideo], []int{1}) {
		t.Errorf("video = %v", byAC[mac.ACVideo])
	}
	if !reflect.DeepEqual(byAC[mac.ACBestEffort], []int{2}) {
		t.Errorf("BE = %v", byAC[mac.ACBestEffort])
	}
	if !reflect.DeepEqual(byAC[mac.ACBackground], []int{3}) {
		t.Errorf("BK = %v", byAC[mac.ACBackground])
	}
}

func TestPrimaryACPriorityOrder(t *testing.T) {
	q := NewQueue()
	if _, ok := q.PrimaryAC(); ok {
		t.Error("empty queue should have no primary AC")
	}
	q.Push(Packet{Client: 0, TID: 1}) // background
	if ac, ok := q.PrimaryAC(); !ok || ac != mac.ACBackground {
		t.Errorf("primary = %v", ac)
	}
	q.Push(Packet{Client: 1, TID: 0}) // best effort outranks background
	if ac, _ := q.PrimaryAC(); ac != mac.ACBestEffort {
		t.Errorf("primary = %v, want AC_BE", ac)
	}
	q.Push(Packet{Client: 2, TID: 6}) // voice outranks all
	if ac, _ := q.PrimaryAC(); ac != mac.ACVoice {
		t.Errorf("primary = %v, want AC_VO", ac)
	}
}

func TestSelectClientsEDCAPrimaryFirst(t *testing.T) {
	rssi := fakeRSSI{
		{0, 100}: 9, {0, 101}: 8, {0, 102}: 1, {0, 103}: 1,
		{1, 100}: 8, {1, 101}: 9, {1, 102}: 1, {1, 103}: 1,
	}
	c := newTestController(rssi)
	// Client 0 queues a background packet, client 1 a voice packet; both
	// tag antennas 100/101.
	c.Enqueue(Packet{Client: 0, TID: 1, Size: 100})
	c.Enqueue(Packet{Client: 1, TID: 6, Size: 100})
	// With voice primary, antenna 100 must serve the voice client first
	// even though the background client has equal standing otherwise.
	clients := c.SelectClientsEDCA([]int{100, 101}, mac.ACVoice)
	if len(clients) != 2 {
		t.Fatalf("clients = %v", clients)
	}
	if clients[0] != 1 {
		t.Errorf("first pick = %d, want voice client 1", clients[0])
	}
	if clients[1] != 0 {
		t.Errorf("second pick = %d, want secondary-class client 0", clients[1])
	}
}

func TestSelectClientsEDCASecondaryFillsGroup(t *testing.T) {
	rssi := fakeRSSI{
		{0, 100}: 9, {0, 101}: 8, {0, 102}: 1, {0, 103}: 1,
		{1, 100}: 1, {1, 101}: 1, {1, 102}: 9, {1, 103}: 8,
	}
	c := newTestController(rssi)
	// Only one voice client; a best-effort client tagged elsewhere tops
	// up the group from the secondary class (§3.3).
	c.Enqueue(Packet{Client: 0, TID: 6, Size: 100})
	c.Enqueue(Packet{Client: 1, TID: 0, Size: 100})
	clients := c.SelectClientsEDCA([]int{100, 102}, mac.ACVoice)
	if len(clients) != 2 {
		t.Fatalf("clients = %v, want both classes served", clients)
	}
}
