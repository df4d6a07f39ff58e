// Package frames implements an 802.11 frame codec in the style of
// gopacket: each frame type is a Layer with AppendTo serialisation and a
// Decode path that validates the FCS and dispatches on the frame-control
// field. The MAC simulator exchanges real encoded frames, so NAV values
// come from decoded Duration fields exactly as they would on the air.
//
// The set covers what the MIDAS MAC needs (§3.2–3.3): RTS/CTS, ACK and
// Block ACK, QoS Data (with EDCA TID), VHT NDP Announcement + NDP for
// sounding, the compressed beamforming report carrying quantised CSI
// feedback, and Group ID management for MU-MIMO addressing.
package frames

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/cmplx"
	"slices"
	"time"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// Broadcast is the all-ones address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// MkAddr builds a deterministic address from a role byte and an id,
// useful for simulated stations (e.g. MkAddr(0xAP, 3)).
func MkAddr(role byte, id uint32) Addr {
	var a Addr
	a[0] = 0x02 // locally administered, unicast
	a[1] = role
	binary.BigEndian.PutUint32(a[2:], id)
	return a
}

// String implements fmt.Stringer.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Type identifies a frame variant understood by this codec.
type Type uint8

// Frame type identifiers.
const (
	TypeRTS Type = iota
	TypeCTS
	TypeAck
	TypeBlockAck
	TypeQoSData
	TypeQoSNull
	TypeNDPA
	TypeNDP
	TypeBFReport
	TypeGroupID
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeRTS:
		return "RTS"
	case TypeCTS:
		return "CTS"
	case TypeAck:
		return "Ack"
	case TypeBlockAck:
		return "BlockAck"
	case TypeQoSData:
		return "QoSData"
	case TypeQoSNull:
		return "QoSNull"
	case TypeNDPA:
		return "NDPAnnouncement"
	case TypeNDP:
		return "NDP"
	case TypeBFReport:
		return "BeamformingReport"
	case TypeGroupID:
		return "GroupIDMgmt"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// 802.11 frame-control constants (type << 2 | subtype << 4, little end).
const (
	fcTypeMgmt    = 0x00
	fcTypeControl = 0x04
	fcTypeData    = 0x08

	fcSubRTS      = 0xb0
	fcSubCTS      = 0xc0
	fcSubAck      = 0xd0
	fcSubBlockAck = 0x90
	fcSubNDPA     = 0x50
	fcSubQoSData  = 0x80
	fcSubQoSNull  = 0xc0
	fcSubAction   = 0xd0
)

// vht category/action codes for management Action frames.
const (
	catVHT             = 21
	actionCompressedBF = 0
	actionGroupID      = 1
	// actionNDPMarker is a codec-internal action code marking the NDP
	// (which on the air is pure preamble with no MAC body).
	actionNDPMarker = 0x7f
)

// Frame is one 802.11 frame understood by this codec.
type Frame interface {
	// FrameType returns the codec type tag.
	FrameType() Type
	// Dur returns the Duration/ID field value — the NAV reservation this
	// frame announces to third parties.
	Dur() time.Duration
	// AppendTo appends the frame body (without FCS) to b and returns the
	// extended slice.
	AppendTo(b []byte) []byte
	// decodeFrom parses the frame from body bytes (without FCS).
	decodeFrom(body []byte) error
}

// ErrTruncated is returned for frames shorter than their fixed header.
var ErrTruncated = errors.New("frames: truncated frame")

// ErrBadFCS is returned when the trailing CRC-32 does not match.
var ErrBadFCS = errors.New("frames: FCS mismatch")

// maxDuration is the largest encodable Duration/ID value (15 bits, µs).
const maxDuration = 32767 * time.Microsecond

func putDuration(b []byte, d time.Duration) {
	us := d / time.Microsecond
	if us < 0 {
		us = 0
	}
	if us > 32767 {
		us = 32767
	}
	binary.LittleEndian.PutUint16(b, uint16(us))
}

func getDuration(b []byte) time.Duration {
	return time.Duration(binary.LittleEndian.Uint16(b)&0x7fff) * time.Microsecond
}

// Encode serialises a frame and appends the 4-byte FCS.
func Encode(f Frame) []byte { return AppendFCS(f.AppendTo(nil)) }

// AppendFCS appends the 4-byte FCS of body, a frame body as AppendTo
// writes it. Encoding a frame with AppendTo into a reused buffer and then
// AppendFCS gives Encode's bytes without allocating.
func AppendFCS(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// Decode verifies the FCS and parses the frame into a newly allocated
// value the caller owns. It is Parser.Parse on a fresh Parser.
func Decode(data []byte) (Frame, error) { return new(Parser).Parse(data) }

// RTS is a request-to-send control frame (20 bytes on air).
type RTS struct {
	Duration time.Duration
	RA, TA   Addr
}

// FrameType implements Frame.
func (*RTS) FrameType() Type { return TypeRTS }

// Dur implements Frame.
func (f *RTS) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *RTS) AppendTo(b []byte) []byte {
	var hdr [16]byte
	hdr[0] = fcTypeControl | fcSubRTS
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	return append(b, hdr[:]...)
}

func (f *RTS) decodeFrom(body []byte) error {
	if len(body) < 16 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	return nil
}

// CTS is a clear-to-send control frame (14 bytes on air).
type CTS struct {
	Duration time.Duration
	RA       Addr
}

// FrameType implements Frame.
func (*CTS) FrameType() Type { return TypeCTS }

// Dur implements Frame.
func (f *CTS) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *CTS) AppendTo(b []byte) []byte {
	var hdr [10]byte
	hdr[0] = fcTypeControl | fcSubCTS
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	return append(b, hdr[:]...)
}

func (f *CTS) decodeFrom(body []byte) error {
	if len(body) < 10 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	return nil
}

// Ack is a normal acknowledgement (14 bytes on air).
type Ack struct {
	Duration time.Duration
	RA       Addr
}

// FrameType implements Frame.
func (*Ack) FrameType() Type { return TypeAck }

// Dur implements Frame.
func (f *Ack) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *Ack) AppendTo(b []byte) []byte {
	var hdr [10]byte
	hdr[0] = fcTypeControl | fcSubAck
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	return append(b, hdr[:]...)
}

func (f *Ack) decodeFrom(body []byte) error {
	if len(body) < 10 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	return nil
}

// BlockAck acknowledges an A-MPDU with a 64-frame bitmap.
type BlockAck struct {
	Duration time.Duration
	RA, TA   Addr
	StartSeq uint16
	Bitmap   uint64
}

// FrameType implements Frame.
func (*BlockAck) FrameType() Type { return TypeBlockAck }

// Dur implements Frame.
func (f *BlockAck) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *BlockAck) AppendTo(b []byte) []byte {
	var hdr [26]byte
	hdr[0] = fcTypeControl | fcSubBlockAck
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	binary.LittleEndian.PutUint16(hdr[16:], f.StartSeq)
	binary.LittleEndian.PutUint64(hdr[18:], f.Bitmap)
	return append(b, hdr[:]...)
}

func (f *BlockAck) decodeFrom(body []byte) error {
	if len(body) < 26 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.StartSeq = binary.LittleEndian.Uint16(body[16:])
	f.Bitmap = binary.LittleEndian.Uint64(body[18:])
	return nil
}

// Acked reports whether the frame at startSeq+offset was acknowledged.
func (f *BlockAck) Acked(offset uint) bool {
	if offset >= 64 {
		return false
	}
	return f.Bitmap&(1<<offset) != 0
}

// QoSData is an EDCA data frame (§3.3: 802.11ac reuses 802.11e's four
// access-category queues for MU-MIMO). GroupID carries the VHT MU group
// the PPDU was precoded for.
type QoSData struct {
	Duration time.Duration
	RA, TA   Addr
	Seq      uint16
	TID      uint8 // traffic class, 0–7 (AC = TID>>1 per 802.11e mapping)
	GroupID  uint8
	Payload  []byte
}

// FrameType implements Frame.
func (*QoSData) FrameType() Type { return TypeQoSData }

// Dur implements Frame.
func (f *QoSData) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *QoSData) AppendTo(b []byte) []byte {
	var hdr [28]byte
	hdr[0] = fcTypeData | fcSubQoSData
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	copy(hdr[16:], f.TA[:]) // addr3 = BSSID = TA for AP-originated frames
	binary.LittleEndian.PutUint16(hdr[22:], f.Seq<<4)
	hdr[24] = f.TID & 0x0f // QoS control
	hdr[25] = f.GroupID
	binary.LittleEndian.PutUint16(hdr[26:], uint16(len(f.Payload)))
	b = append(b, hdr[:]...)
	return append(b, f.Payload...)
}

func (f *QoSData) decodeFrom(body []byte) error {
	if len(body) < 28 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.Seq = binary.LittleEndian.Uint16(body[22:]) >> 4
	f.TID = body[24] & 0x0f
	f.GroupID = body[25]
	n := int(binary.LittleEndian.Uint16(body[26:]))
	if len(body) < 28+n {
		return ErrTruncated
	}
	f.Payload = append([]byte(nil), body[28:28+n]...)
	return nil
}

// QoSNull is a data frame with no payload, used for NAV maintenance.
type QoSNull struct {
	Duration time.Duration
	RA, TA   Addr
	TID      uint8
}

// FrameType implements Frame.
func (*QoSNull) FrameType() Type { return TypeQoSNull }

// Dur implements Frame.
func (f *QoSNull) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *QoSNull) AppendTo(b []byte) []byte {
	var hdr [26]byte
	hdr[0] = fcTypeData | fcSubQoSNull
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	copy(hdr[16:], f.TA[:])
	hdr[24] = f.TID & 0x0f
	return append(b, hdr[:]...)
}

func (f *QoSNull) decodeFrom(body []byte) error {
	if len(body) < 26 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.TID = body[24] & 0x0f
	return nil
}

// STAInfo identifies one sounding target inside an NDP announcement.
type STAInfo struct {
	AID      uint16 // association ID
	Feedback uint8  // 0 = SU, 1 = MU feedback requested
}

// NDPA is the VHT NDP Announcement control frame that starts a sounding
// exchange (§3.3 channel estimation).
type NDPA struct {
	Duration time.Duration
	RA, TA   Addr
	Token    uint8
	STAs     []STAInfo
}

// FrameType implements Frame.
func (*NDPA) FrameType() Type { return TypeNDPA }

// Dur implements Frame.
func (f *NDPA) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *NDPA) AppendTo(b []byte) []byte {
	var hdr [17]byte
	hdr[0] = fcTypeControl | fcSubNDPA
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	hdr[16] = f.Token
	b = append(b, hdr[:]...)
	b = append(b, byte(len(f.STAs)))
	for _, s := range f.STAs {
		b = binary.LittleEndian.AppendUint16(b, s.AID&0x0fff)
		b = append(b, s.Feedback)
	}
	return b
}

func (f *NDPA) decodeFrom(body []byte) error {
	if len(body) < 18 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.Token = body[16]
	n := int(body[17])
	if len(body) < 18+3*n {
		return ErrTruncated
	}
	f.STAs = slices.Grow(f.STAs[:0], n)[:n] // reuses a Parser's slice
	for i := 0; i < n; i++ {
		off := 18 + 3*i
		f.STAs[i] = STAInfo{
			AID:      binary.LittleEndian.Uint16(body[off:]) & 0x0fff,
			Feedback: body[off+2],
		}
	}
	return nil
}

// NDP marks the null data packet that follows an NDPA. On the air it is
// pure VHT preamble with no MAC body; the codec carries it as a marker
// frame so the simulator can schedule and account for its airtime.
type NDP struct {
	Duration time.Duration
	TA       Addr
	Streams  uint8 // number of space-time streams sounded
}

// FrameType implements Frame.
func (*NDP) FrameType() Type { return TypeNDP }

// Dur implements Frame.
func (f *NDP) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *NDP) AppendTo(b []byte) []byte {
	var hdr [27]byte
	hdr[0] = fcTypeMgmt | fcSubAction
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], Broadcast[:])
	copy(hdr[10:], f.TA[:])
	copy(hdr[16:], f.TA[:])
	hdr[24] = catVHT
	hdr[25] = actionNDPMarker
	hdr[26] = f.Streams
	return append(b, hdr[:]...)
}

func (f *NDP) decodeFrom(body []byte) error {
	if len(body) < 27 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.TA[:], body[10:])
	f.Streams = body[26]
	return nil
}

// GroupID is the VHT Group ID Management action frame assigning a client
// its position within an MU-MIMO group.
type GroupID struct {
	Duration time.Duration
	RA, TA   Addr
	Group    uint8
	Position uint8
}

// FrameType implements Frame.
func (*GroupID) FrameType() Type { return TypeGroupID }

// Dur implements Frame.
func (f *GroupID) Dur() time.Duration { return f.Duration }

// AppendTo implements Frame.
func (f *GroupID) AppendTo(b []byte) []byte {
	var hdr [28]byte
	hdr[0] = fcTypeMgmt | fcSubAction
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	copy(hdr[16:], f.TA[:])
	hdr[24] = catVHT
	hdr[25] = actionGroupID
	hdr[26] = f.Group
	hdr[27] = f.Position
	return append(b, hdr[:]...)
}

func (f *GroupID) decodeFrom(body []byte) error {
	if len(body) < 28 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.Group = body[26]
	f.Position = body[27]
	return nil
}

// BFReport is the VHT compressed beamforming action frame carrying the
// client's quantised channel estimate back to the AP. Real 802.11ac
// compresses V-matrix Givens angles; this codec quantises magnitude and
// phase per matrix entry instead (same behavioural role — lossy,
// bounded-size CSI feedback; see internal/phy.Sounding).
type BFReport struct {
	Duration time.Duration
	RA, TA   Addr
	Token    uint8
	NRows    uint8 // clients' receive antennas (rows of the fed-back H)
	NCols    uint8 // AP transmit antennas
	// Entries holds quantised complex channel entries, row-major.
	Entries []complex128
}

// FrameType implements Frame.
func (*BFReport) FrameType() Type { return TypeBFReport }

// Dur implements Frame.
func (f *BFReport) Dur() time.Duration { return f.Duration }

// bfScale converts a float64 in a ±1e6 range to a 32-bit fixed point.
// Channel amplitudes in this simulator are ≤1e-2 (sqrt of path gain), so
// scaling by 2^40 keeps ~7 significant digits.
const bfScale = 1 << 40

// AppendTo implements Frame.
func (f *BFReport) AppendTo(b []byte) []byte {
	var hdr [29]byte
	hdr[0] = fcTypeMgmt | fcSubAction
	putDuration(hdr[2:], f.Duration)
	copy(hdr[4:], f.RA[:])
	copy(hdr[10:], f.TA[:])
	copy(hdr[16:], f.TA[:])
	hdr[24] = catVHT
	hdr[25] = actionCompressedBF
	hdr[26] = f.Token
	hdr[27] = f.NRows
	hdr[28] = f.NCols
	b = append(b, hdr[:]...)
	for _, e := range f.Entries {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(real(e)*bfScale)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(imag(e)*bfScale)))
	}
	return b
}

func (f *BFReport) decodeFrom(body []byte) error {
	if len(body) < 29 {
		return ErrTruncated
	}
	f.Duration = getDuration(body[2:])
	copy(f.RA[:], body[4:])
	copy(f.TA[:], body[10:])
	f.Token = body[26]
	f.NRows = body[27]
	f.NCols = body[28]
	n := int(f.NRows) * int(f.NCols)
	if len(body) < 29+16*n {
		return ErrTruncated
	}
	f.Entries = make([]complex128, n)
	for i := 0; i < n; i++ {
		off := 29 + 16*i
		re := float64(int64(binary.LittleEndian.Uint64(body[off:]))) / bfScale
		im := float64(int64(binary.LittleEndian.Uint64(body[off+8:]))) / bfScale
		f.Entries[i] = complex(re, im)
	}
	return nil
}

// MaxEntryError returns the worst-case absolute error the fixed-point
// wire format introduces for entries of the given magnitude.
func MaxEntryError() float64 { return math.Sqrt2 / bfScale }

// EntryAt returns the fed-back channel entry for row r, column c.
func (f *BFReport) EntryAt(r, c int) complex128 {
	return f.Entries[r*int(f.NCols)+c]
}

// CloseTo reports whether two reports carry the same dimensions and
// entries within tol.
func (f *BFReport) CloseTo(g *BFReport, tol float64) bool {
	if f.NRows != g.NRows || f.NCols != g.NCols || len(f.Entries) != len(g.Entries) {
		return false
	}
	for i := range f.Entries {
		if cmplx.Abs(f.Entries[i]-g.Entries[i]) > tol {
			return false
		}
	}
	return true
}
