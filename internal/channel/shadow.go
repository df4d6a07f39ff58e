package channel

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/geom"
)

// ShadowField is a deterministic obstruction model for the paper's office
// testbeds: a multi-wall (Motley–Keenan) loss over a room grid plus a
// small per-link log-normal residual. It is the root of the spatial
// diversity every MIDAS mechanism leverages — carrier sensing is local,
// deadzones and hidden terminals exist, and distributed antennas see
// genuinely different channels.
//
// Crucially the model is *directional*: the loss of a link depends on the
// walls the straight path crosses, so an antenna that is isolated from an
// interferer two rooms away is still strong inside its own room. This is
// the property §3.2.4 relies on ("the channel state of the antenna close
// to the client reflects the potential state of the client"), and the
// property the co-located baseline cannot exploit.
//
// The same field drives the data plane (channel.Model) and the control
// plane (mac.Air): a link that is weak for sensing is equally weak for
// payload. Walls are anchored on a per-seed offset grid so different
// topology seeds see different floor plans.
type ShadowField struct {
	Seed    int64
	SigmaDB float64 // per-link log-normal residual spread
	// WallDB is the penetration loss per wall crossed.
	WallDB float64
	// RoomW, RoomH are the office room dimensions in metres.
	RoomW, RoomH float64
	// MaxWallDB caps the aggregate wall loss (leakage/diffraction floor).
	MaxWallDB float64

	offX, offY float64 // per-seed grid offset
}

// Default obstruction parameters (typical enterprise drywall offices).
const (
	DefaultWallDB    = 10.0
	DefaultRoomW     = 10.0
	DefaultRoomH     = 12.0
	DefaultMaxWallDB = 50.0
)

// NewShadowField returns a field with the given seed and residual spread
// and default wall parameters.
func NewShadowField(seed int64, sigmaDB float64) *ShadowField {
	f := &ShadowField{
		Seed:      seed,
		SigmaDB:   sigmaDB,
		WallDB:    DefaultWallDB,
		RoomW:     DefaultRoomW,
		RoomH:     DefaultRoomH,
		MaxWallDB: DefaultMaxWallDB,
	}
	f.offX = hashToUnit(seed, 0, 0, 2) * f.RoomW
	f.offY = hashToUnit(seed, 0, 0, 3) * f.RoomH
	return f
}

// Shadow returns the linear obstruction factor for the link a–b (≤ ~1 up
// to the residual).
func (f *ShadowField) Shadow(a, b geom.Point) float64 {
	if f == nil {
		return 1
	}
	return math.Pow(10, f.ShadowDB(a, b)/10)
}

// ShadowDB returns the obstruction gain in dB for the link a–b (negative
// for walls, ± residual).
func (f *ShadowField) ShadowDB(a, b geom.Point) float64 {
	if f == nil {
		return 0
	}
	loss := f.WallDB * float64(f.Walls(a, b))
	if loss > f.MaxWallDB {
		loss = f.MaxWallDB
	}
	return -loss + f.residualDB(a, b)
}

// Walls returns the number of walls the straight path a–b crosses on the
// room grid.
func (f *ShadowField) Walls(a, b geom.Point) int {
	if f == nil || f.WallDB == 0 {
		return 0
	}
	ax := math.Floor((a.X - f.offX) / f.RoomW)
	bx := math.Floor((b.X - f.offX) / f.RoomW)
	ay := math.Floor((a.Y - f.offY) / f.RoomH)
	by := math.Floor((b.Y - f.offY) / f.RoomH)
	return int(math.Abs(ax-bx) + math.Abs(ay-by))
}

// residualDB is the per-link log-normal residual (furniture, multipath
// clutter): deterministic in the quantised endpoint pair, symmetric.
func (f *ShadowField) residualDB(a, b geom.Point) float64 {
	if f.SigmaDB == 0 {
		return 0
	}
	const q = 0.1 // 10 cm quantisation
	ax, ay := int64(math.Round(a.X/q)), int64(math.Round(a.Y/q))
	bx, by := int64(math.Round(b.X/q)), int64(math.Round(b.Y/q))
	if ax > bx || (ax == bx && ay > by) {
		ax, ay, bx, by = bx, by, ax, ay
	}
	key := mix(mix(mix(uint64(ax), uint64(ay)), uint64(bx)), uint64(by))
	u1 := hashToUnit(f.Seed, int64(key), 0, 0)
	u2 := hashToUnit(f.Seed, int64(key), 0, 1)
	// Box–Muller: deterministic standard normal from the two uniforms.
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return f.SigmaDB * z
}

func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// hashToUnit maps a key to a uniform value in (0, 1).
func hashToUnit(seed, i, j int64, salt byte) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [...]int64{seed, i, j} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte{salt})
	u := h.Sum64()
	// 53-bit mantissa → uniform in [0,1); shift away from exact 0.
	x := float64(u>>11) / float64(1<<53)
	if x < 1e-12 {
		x = 1e-12
	}
	return x
}
