package mac

import (
	"reflect"
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestNAVUpdateRule(t *testing.T) {
	var n NAV
	if n.Busy(0) {
		t.Error("fresh NAV should be idle")
	}
	n.Update(us(100))
	if !n.Busy(us(50)) || n.Busy(us(100)) {
		t.Error("NAV window wrong")
	}
	// Shorter reservation must not shrink the NAV.
	n.Update(us(60))
	if n.Expiry() != us(100) {
		t.Errorf("expiry = %v, want 100µs", n.Expiry())
	}
	n.Update(us(200))
	if n.Expiry() != us(200) {
		t.Errorf("expiry = %v, want 200µs", n.Expiry())
	}
	n.Clear()
	if n.Busy(0) {
		t.Error("cleared NAV should be idle")
	}
}

func TestDurationField(t *testing.T) {
	for _, c := range []struct {
		name    string
		in, out time.Duration
	}{
		{"zero announces no NAV", 0, 0},
		{"under a microsecond announces no NAV", 999 * time.Nanosecond, 0},
		{"whole microseconds pass", us(300), us(300)},
		{"sub-microsecond part truncates", us(300) + 999*time.Nanosecond, us(300)},
		{"negative clamps to zero", -us(5), 0},
		{"largest field value passes", us(32767), us(32767)},
		{"above the field clamps", us(32767) + 999*time.Nanosecond, us(32767)},
		{"a second clamps", time.Second, us(32767)},
	} {
		if got := durationField(c.in); got != c.out {
			t.Errorf("%s: durationField(%v) = %v, want %v", c.name, c.in, got, c.out)
		}
	}
}

func TestTableIndependentNAVs(t *testing.T) {
	tab := NewTable(4)
	if tab.Len() != 4 {
		t.Fatalf("Len = %d", tab.Len())
	}
	tab.Update(1, us(100))
	tab.Update(3, us(50))
	if tab.Busy(0, us(10)) || tab.Busy(2, us(10)) {
		t.Error("untouched antennas should be idle")
	}
	if !tab.Busy(1, us(10)) || !tab.Busy(3, us(10)) {
		t.Error("updated antennas should be busy")
	}
	idle := tab.Idle(us(60))
	if !reflect.DeepEqual(idle, []int{0, 2, 3}) {
		t.Errorf("Idle = %v", idle)
	}
}

func TestTableUpdateAllCouplesState(t *testing.T) {
	tab := NewTable(3)
	tab.UpdateAll(us(80))
	for k := 0; k < 3; k++ {
		if !tab.Busy(k, us(10)) {
			t.Errorf("antenna %d should be busy after UpdateAll", k)
		}
	}
}

func TestExpiringWithin(t *testing.T) {
	tab := NewTable(4)
	tab.Update(0, us(100)) // expires at 100
	tab.Update(1, us(500)) // expires at 500
	tab.Update(2, us(130)) // expires at 130
	// antenna 3 idle
	got := tab.ExpiringWithin(us(95), us(40)) // window [95,135]
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("ExpiringWithin = %v, want [0 2]", got)
	}
	if got := tab.ExpiringWithin(us(95), 0); len(got) != 0 {
		t.Errorf("zero window should match nothing, got %v", got)
	}
}

func TestByExpiry(t *testing.T) {
	tab := NewTable(4)
	tab.Update(0, us(300))
	tab.Update(1, us(100))
	tab.Update(2, us(200))
	// antenna 3 never updated: expiry 0, earliest.
	got := tab.ByExpiry([]int{0, 1, 2, 3})
	if !reflect.DeepEqual(got, []int{3, 1, 2, 0}) {
		t.Errorf("ByExpiry = %v", got)
	}
	// Subset ordering and tie-break by index.
	tab2 := NewTable(3)
	tab2.Update(2, us(50))
	tab2.Update(1, us(50))
	if got := tab2.ByExpiry([]int{2, 1}); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("tie-break = %v, want [1 2]", got)
	}
	// Input not mutated.
	in := []int{2, 0}
	tab.ByExpiry(in)
	if !reflect.DeepEqual(in, []int{2, 0}) {
		t.Error("ByExpiry mutated its input")
	}
}

func TestACOfTID(t *testing.T) {
	cases := map[uint8]AccessCategory{
		0: ACBestEffort, 1: ACBackground, 2: ACBackground, 3: ACBestEffort,
		4: ACVideo, 5: ACVideo, 6: ACVoice, 7: ACVoice,
	}
	for tid, want := range cases {
		if got := ACOfTID(tid); got != want {
			t.Errorf("ACOfTID(%d) = %v, want %v", tid, got, want)
		}
	}
}

func TestEDCAParamsOrdering(t *testing.T) {
	// Voice must have the most aggressive parameters.
	vo, be := DefaultEDCA(ACVoice), DefaultEDCA(ACBestEffort)
	if vo.CWMin >= be.CWMin {
		t.Error("voice CWMin should be smaller than best-effort")
	}
	if vo.AIFS() > be.AIFS() {
		t.Error("voice AIFS should not exceed best-effort")
	}
	if DefaultEDCA(ACBackground).AIFSN <= be.AIFSN {
		t.Error("background AIFSN should exceed best-effort")
	}
}

func TestDIFSValue(t *testing.T) {
	if DIFS != 34*time.Microsecond {
		t.Errorf("DIFS = %v, want 34µs", DIFS)
	}
	for _, ac := range []AccessCategory{ACBackground, ACBestEffort, ACVideo, ACVoice} {
		if ac.String() == "AC_?" {
			t.Errorf("missing name for %d", ac)
		}
	}
}
