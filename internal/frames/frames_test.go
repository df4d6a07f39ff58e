package frames

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	data := Encode(f)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%v): %v", f.FrameType(), err)
	}
	if got.FrameType() != f.FrameType() {
		t.Fatalf("type = %v, want %v", got.FrameType(), f.FrameType())
	}
	return got
}

func TestMkAddr(t *testing.T) {
	a := MkAddr(0xa0, 7)
	b := MkAddr(0xa0, 7)
	c := MkAddr(0xa0, 8)
	if a != b {
		t.Error("MkAddr not deterministic")
	}
	if a == c {
		t.Error("different ids should differ")
	}
	if a[0]&0x01 != 0 {
		t.Error("address must be unicast")
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func TestRTSRoundTrip(t *testing.T) {
	f := &RTS{Duration: 123 * time.Microsecond, RA: MkAddr(1, 2), TA: MkAddr(3, 4)}
	got := roundTrip(t, f).(*RTS)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestCTSRoundTrip(t *testing.T) {
	f := &CTS{Duration: 99 * time.Microsecond, RA: MkAddr(5, 6)}
	got := roundTrip(t, f).(*CTS)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestAckRoundTrip(t *testing.T) {
	f := &Ack{Duration: 0, RA: MkAddr(7, 8)}
	got := roundTrip(t, f).(*Ack)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestBlockAckRoundTrip(t *testing.T) {
	f := &BlockAck{
		Duration: 44 * time.Microsecond,
		RA:       MkAddr(1, 1), TA: MkAddr(2, 2),
		StartSeq: 1000, Bitmap: 0xdeadbeefcafe,
	}
	got := roundTrip(t, f).(*BlockAck)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
	if !got.Acked(1) || got.Acked(0) {
		// 0xfe has bit0=0, bit1=1
		t.Errorf("Acked bits wrong: %x", got.Bitmap)
	}
	if got.Acked(64) {
		t.Error("offset ≥64 must be false")
	}
}

func TestQoSDataRoundTrip(t *testing.T) {
	f := &QoSData{
		Duration: 500 * time.Microsecond,
		RA:       MkAddr(9, 1), TA: MkAddr(9, 2),
		Seq: 321, TID: 5, GroupID: 12,
		Payload: []byte("MIDAS payload"),
	}
	got := roundTrip(t, f).(*QoSData)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestQoSDataEmptyPayload(t *testing.T) {
	f := &QoSData{RA: MkAddr(1, 1), TA: MkAddr(1, 2), Payload: nil}
	got := roundTrip(t, f).(*QoSData)
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestQoSNullRoundTrip(t *testing.T) {
	f := &QoSNull{Duration: 10 * time.Microsecond, RA: MkAddr(3, 3), TA: MkAddr(4, 4), TID: 7}
	got := roundTrip(t, f).(*QoSNull)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestNDPARoundTrip(t *testing.T) {
	f := &NDPA{
		Duration: 200 * time.Microsecond,
		RA:       Broadcast, TA: MkAddr(0xa0, 1),
		Token: 42,
		STAs: []STAInfo{
			{AID: 1, Feedback: 1},
			{AID: 2, Feedback: 1},
			{AID: 3, Feedback: 0},
		},
	}
	got := roundTrip(t, f).(*NDPA)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestNDPAEmptySTAList(t *testing.T) {
	f := &NDPA{RA: Broadcast, TA: MkAddr(1, 1)}
	got := roundTrip(t, f).(*NDPA)
	if len(got.STAs) != 0 {
		t.Errorf("STAs = %v", got.STAs)
	}
}

func TestNDPRoundTrip(t *testing.T) {
	f := &NDP{Duration: 40 * time.Microsecond, TA: MkAddr(0xa0, 2), Streams: 4}
	got := roundTrip(t, f).(*NDP)
	if got.TA != f.TA || got.Streams != 4 || got.Duration != f.Duration {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestGroupIDRoundTrip(t *testing.T) {
	f := &GroupID{
		Duration: 32 * time.Microsecond,
		RA:       MkAddr(2, 9), TA: MkAddr(0xa0, 3),
		Group: 5, Position: 2,
	}
	got := roundTrip(t, f).(*GroupID)
	if !reflect.DeepEqual(f, got) {
		t.Errorf("got %+v, want %+v", got, f)
	}
}

func TestBFReportRoundTrip(t *testing.T) {
	f := &BFReport{
		Duration: 150 * time.Microsecond,
		RA:       MkAddr(0xa0, 1), TA: MkAddr(2, 1),
		Token: 42, NRows: 1, NCols: 4,
		Entries: []complex128{
			complex(1.25e-4, -3.5e-5),
			complex(-2e-6, 7e-6),
			complex(0, 0),
			complex(9.99e-4, 1e-9),
		},
	}
	got := roundTrip(t, f).(*BFReport)
	if got.Token != 42 || got.NRows != 1 || got.NCols != 4 {
		t.Fatalf("header fields wrong: %+v", got)
	}
	if !f.CloseTo(got, MaxEntryError()) {
		t.Errorf("entries drifted beyond fixed-point error: %v vs %v", got.Entries, f.Entries)
	}
	if got.EntryAt(0, 3) != got.Entries[3] {
		t.Error("EntryAt wrong")
	}
}

func TestDurationClamping(t *testing.T) {
	f := &RTS{Duration: time.Second, RA: MkAddr(1, 1), TA: MkAddr(2, 2)}
	got := roundTrip(t, f).(*RTS)
	if got.Duration != maxDuration {
		t.Errorf("Duration = %v, want clamp to %v", got.Duration, maxDuration)
	}
	f2 := &RTS{Duration: -5 * time.Microsecond, RA: MkAddr(1, 1), TA: MkAddr(2, 2)}
	if got := roundTrip(t, f2).(*RTS); got.Duration != 0 {
		t.Errorf("negative duration should clamp to 0, got %v", got.Duration)
	}
}

func TestDecodeRejectsBadFCS(t *testing.T) {
	data := Encode(&CTS{RA: MkAddr(1, 1)})
	data[3] ^= 0xff
	if _, err := Decode(data); err != ErrBadFCS {
		t.Errorf("err = %v, want ErrBadFCS", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	// Valid FCS over a too-short RTS body.
	body := []byte{fcTypeControl | fcSubRTS, 0, 0, 0}
	data := Encode(frameBytes(body))
	if _, err := Decode(data); err == nil {
		t.Error("expected error for truncated RTS body")
	}
}

// frameBytes wraps raw bytes as a Frame for constructing corrupt inputs.
type rawFrame []byte

func frameBytes(b []byte) Frame                 { return rawFrame(b) }
func (r rawFrame) FrameType() Type              { return Type(255) }
func (r rawFrame) Dur() time.Duration           { return 0 }
func (r rawFrame) AppendTo(b []byte) []byte     { return append(b, r...) }
func (r rawFrame) decodeFrom(body []byte) error { return nil }

func TestDecodeUnknownSubtype(t *testing.T) {
	body := make([]byte, 16)
	body[0] = fcTypeControl | 0x00 // bogus subtype
	if _, err := Decode(Encode(frameBytes(body))); err == nil {
		t.Error("expected unknown-subtype error")
	}
}

func TestAggregateDeaggregate(t *testing.T) {
	m1 := Encode(&QoSData{RA: MkAddr(1, 1), TA: MkAddr(1, 2), Seq: 1, Payload: []byte("one")})
	m2 := Encode(&QoSData{RA: MkAddr(1, 1), TA: MkAddr(1, 2), Seq: 2, Payload: []byte("two two")})
	m3 := Encode(&Ack{RA: MkAddr(1, 2)})
	am, err := Aggregate(m1, m2, m3)
	if err != nil {
		t.Fatal(err)
	}
	if len(am)%4 != 0 {
		t.Error("A-MPDU not 4-byte aligned")
	}
	got := Deaggregate(am)
	if len(got) != 3 {
		t.Fatalf("got %d MPDUs, want 3", len(got))
	}
	if !bytes.Equal(got[0], m1) || !bytes.Equal(got[1], m2) || !bytes.Equal(got[2], m3) {
		t.Error("MPDU bytes corrupted")
	}
}

func TestDeaggregateSkipsCorruptMPDU(t *testing.T) {
	m1 := Encode(&Ack{RA: MkAddr(1, 1)})
	m2 := Encode(&Ack{RA: MkAddr(1, 2)})
	am, _ := Aggregate(m1, m2)
	// Corrupt the first MPDU's payload (after its 4-byte delimiter).
	am[6] ^= 0xff
	got := Deaggregate(am)
	if len(got) != 2 {
		t.Fatalf("got %d MPDUs, want 2", len(got))
	}
	if got[0] != nil {
		t.Error("corrupt MPDU should be nil placeholder")
	}
	if !bytes.Equal(got[1], m2) {
		t.Error("second MPDU should survive")
	}
}

func TestDeaggregateResyncsAfterDelimiterCorruption(t *testing.T) {
	m1 := Encode(&Ack{RA: MkAddr(1, 1)})
	m2 := Encode(&Ack{RA: MkAddr(1, 2)})
	am, _ := Aggregate(m1, m2)
	am[3] = 0 // destroy first delimiter signature
	got := Deaggregate(am)
	// First MPDU is lost entirely, second recovered by scanning.
	if len(got) != 1 || !bytes.Equal(got[0], m2) {
		t.Errorf("resync failed: got %d MPDUs", len(got))
	}
}

func TestAggregateRejectsOversize(t *testing.T) {
	if _, err := Aggregate(make([]byte, 0x4000)); err == nil {
		t.Error("expected oversize error")
	}
}

func TestParserMatchesDecode(t *testing.T) {
	var p Parser
	inputs := []Frame{
		&RTS{Duration: 10 * time.Microsecond, RA: MkAddr(1, 1), TA: MkAddr(1, 2)},
		&CTS{Duration: 20 * time.Microsecond, RA: MkAddr(1, 3)},
		&Ack{RA: MkAddr(1, 4)},
		&BlockAck{RA: MkAddr(1, 5), TA: MkAddr(1, 6), StartSeq: 9, Bitmap: 3},
		&QoSData{RA: MkAddr(1, 7), TA: MkAddr(1, 8), Seq: 77, TID: 3, Payload: []byte("x")},
		&QoSNull{RA: MkAddr(1, 9), TA: MkAddr(2, 0), TID: 1},
		&NDPA{RA: Broadcast, TA: MkAddr(2, 1), Token: 9, STAs: []STAInfo{{AID: 4, Feedback: 1}}},
		&NDP{TA: MkAddr(2, 2), Streams: 4},
		&GroupID{RA: MkAddr(2, 3), TA: MkAddr(2, 4), Group: 1, Position: 3},
		&BFReport{RA: MkAddr(2, 5), TA: MkAddr(2, 6), NRows: 1, NCols: 2, Entries: []complex128{1e-5, 2e-5i}},
	}
	for _, in := range inputs {
		data := Encode(in)
		viaDecode, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", in.FrameType(), err)
		}
		viaParser, err := p.Parse(data)
		if err != nil {
			t.Fatalf("%v parser: %v", in.FrameType(), err)
		}
		if viaParser.FrameType() != viaDecode.FrameType() {
			t.Errorf("parser type %v != decode type %v", viaParser.FrameType(), viaDecode.FrameType())
		}
		if viaParser.Dur() != viaDecode.Dur() {
			t.Errorf("%v: parser dur %v != decode dur %v", in.FrameType(), viaParser.Dur(), viaDecode.Dur())
		}
	}

	// A beamforming report whose action category or management subtype
	// no longer says VHT Action is not a frame this codec knows: both
	// decoders must refuse it, with the same error.
	bf := &BFReport{RA: MkAddr(2, 5), TA: MkAddr(2, 6), NRows: 1, NCols: 1, Entries: []complex128{1e-5}}
	for _, m := range []struct {
		name    string
		mutate  func(body []byte)
		wantSub string
	}{
		{"category not VHT", func(b []byte) { b[24] = catVHT + 1 }, "action category"},
		{"subtype not Action", func(b []byte) { b[0] = fcTypeMgmt | 0x80 }, "mgmt subtype"},
	} {
		body := bf.AppendTo(nil)
		m.mutate(body)
		data := AppendFCS(body)
		_, decErr := Decode(data)
		_, parseErr := p.Parse(data)
		if decErr == nil || parseErr == nil {
			t.Fatalf("%s: Decode err %v, Parse err %v; want both to refuse", m.name, decErr, parseErr)
		}
		if decErr.Error() != parseErr.Error() || !strings.Contains(decErr.Error(), m.wantSub) {
			t.Errorf("%s: Decode err %q, Parse err %q; want the same error naming %q", m.name, decErr, parseErr, m.wantSub)
		}
	}
}

func TestParserRejectsBadFCS(t *testing.T) {
	var p Parser
	data := Encode(&Ack{RA: MkAddr(1, 1)})
	data[0] ^= 0x01
	if _, err := p.Parse(data); err != ErrBadFCS {
		t.Errorf("err = %v, want ErrBadFCS", err)
	}
}

func TestCRC8KnownProperties(t *testing.T) {
	// Different inputs should (almost always) give different CRCs.
	a := crc8([]byte{0x10, 0x00})
	b := crc8([]byte{0x11, 0x00})
	if a == b {
		t.Error("CRC8 collision on adjacent inputs")
	}
	// Deterministic.
	if crc8([]byte{1, 2}) != crc8([]byte{1, 2}) {
		t.Error("CRC8 not deterministic")
	}
}

// Property: every QoSData round-trips exactly through Encode/Decode.
func TestQoSDataRoundTripProperty(t *testing.T) {
	f := func(seq uint16, tid, gid uint8, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		in := &QoSData{
			RA: MkAddr(1, 1), TA: MkAddr(1, 2),
			Seq: seq & 0x0fff, TID: tid & 0x0f, GroupID: gid,
			Payload: payload,
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		q := out.(*QoSData)
		return q.Seq == in.Seq && q.TID == in.TID && q.GroupID == in.GroupID &&
			bytes.Equal(q.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Decode never panics on arbitrary input.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		_, _ = Decode(data)
		var p Parser
		_, _ = p.Parse(data)
		_ = Deaggregate(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeQoSData(b *testing.B) {
	f := &QoSData{RA: MkAddr(1, 1), TA: MkAddr(1, 2), Payload: make([]byte, 1500)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(f)
	}
}

func BenchmarkParserQoSData(b *testing.B) {
	data := Encode(&QoSData{RA: MkAddr(1, 1), TA: MkAddr(1, 2), Payload: make([]byte, 1500)})
	var p Parser
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}
