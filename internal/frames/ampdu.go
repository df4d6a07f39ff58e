package frames

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// A-MPDU aggregation: 802.11ac sends every data PPDU as an aggregate of
// MPDU subframes, each preceded by a 4-byte delimiter carrying the MPDU
// length and a delimiter CRC-8, padded to 4-byte boundaries. This file
// implements aggregation and (robust, resynchronising) deaggregation in
// the gopacket serialize-buffer style.

// delimiter layout: EOF(1) | reserved(1) | length(14) | crc8 | signature.
const delimSignature = 0x4e // 'N', as in the standard

// crc8 implements the CRC-8 used by A-MPDU delimiters (x^8+x^2+x+1).
func crc8(data []byte) byte {
	crc := byte(0xff)
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return ^crc
}

// Aggregate packs encoded MPDUs (as produced by Encode) into one A-MPDU.
func Aggregate(mpdus ...[]byte) ([]byte, error) {
	var out []byte
	for i, m := range mpdus {
		if len(m) > 0x3fff {
			return nil, fmt.Errorf("frames: MPDU %d too long (%d bytes)", i, len(m))
		}
		var d [4]byte
		binary.LittleEndian.PutUint16(d[0:], uint16(len(m))) // 14-bit length
		d[2] = crc8(d[0:2])
		d[3] = delimSignature
		out = append(out, d[:]...)
		out = append(out, m...)
		for len(out)%4 != 0 {
			out = append(out, 0)
		}
	}
	return out, nil
}

// Deaggregate splits an A-MPDU into its MPDUs, skipping corrupt
// delimiters by scanning for the signature byte (the standard's
// resynchronisation rule). MPDUs with bad FCS are returned as nil
// placeholders so the caller can count losses positionally.
func Deaggregate(ampdu []byte) [][]byte {
	var out [][]byte
	i := 0
	for i+4 <= len(ampdu) {
		if ampdu[i+3] != delimSignature || crc8(ampdu[i:i+2]) != ampdu[i+2] {
			i++ // resync scan
			continue
		}
		n := int(binary.LittleEndian.Uint16(ampdu[i:]) & 0x3fff)
		start := i + 4
		if start+n > len(ampdu) {
			break
		}
		mpdu := ampdu[start : start+n]
		if validFCS(mpdu) {
			out = append(out, mpdu)
		} else {
			out = append(out, nil)
		}
		i = start + n
		for i%4 != 0 {
			i++
		}
	}
	return out
}

func validFCS(mpdu []byte) bool {
	if len(mpdu) < 4 {
		return false
	}
	body := mpdu[:len(mpdu)-4]
	return crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(mpdu[len(mpdu)-4:])
}

// Parser is a preallocated decoder in the style of gopacket's
// DecodingLayerParser: it decodes into caller-owned frame values, avoiding
// per-frame allocations on the hot path of the MAC simulator.
type Parser struct {
	rts   RTS
	cts   CTS
	ack   Ack
	back  BlockAck
	data  QoSData
	null  QoSNull
	ndpa  NDPA
	ndp   NDP
	bf    BFReport
	group GroupID
}

// Parse decodes data (with FCS) into one of the parser's preallocated
// frames and returns it. The returned Frame is owned by the Parser and
// valid until the next Parse call.
func (p *Parser) Parse(data []byte) (Frame, error) {
	if len(data) < 6 {
		return nil, ErrTruncated
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, ErrBadFCS
	}
	fc := body[0]
	var f Frame
	switch fc & 0x0c {
	case fcTypeControl:
		switch fc & 0xf0 {
		case fcSubRTS:
			f = &p.rts
		case fcSubCTS:
			f = &p.cts
		case fcSubAck:
			f = &p.ack
		case fcSubBlockAck:
			f = &p.back
		case fcSubNDPA:
			f = &p.ndpa
		default:
			return nil, fmt.Errorf("frames: unknown control subtype %#x", fc&0xf0)
		}
	case fcTypeData:
		switch fc & 0xf0 {
		case fcSubQoSData:
			f = &p.data
		case fcSubQoSNull:
			f = &p.null
		default:
			return nil, fmt.Errorf("frames: unknown data subtype %#x", fc&0xf0)
		}
	case fcTypeMgmt:
		if fc&0xf0 != fcSubAction {
			return nil, fmt.Errorf("frames: unknown mgmt subtype %#x", fc&0xf0)
		}
		if len(body) < 26 {
			return nil, ErrTruncated
		}
		if body[24] != catVHT {
			return nil, fmt.Errorf("frames: unknown action category %d", body[24])
		}
		switch body[25] {
		case actionCompressedBF:
			f = &p.bf
		case actionGroupID:
			f = &p.group
		case actionNDPMarker:
			f = &p.ndp
		default:
			return nil, fmt.Errorf("frames: unknown VHT action %d", body[25])
		}
	default:
		return nil, fmt.Errorf("frames: unknown frame type %#x", fc&0x0c)
	}
	if err := f.decodeFrom(body); err != nil {
		return nil, err
	}
	return f, nil
}
