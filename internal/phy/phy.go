// Package phy models the 802.11ac physical-layer machinery that sits
// between the channel and the MAC: explicit sounding with quantised CSI
// feedback (§3.3 of the MIDAS paper), SINR-to-MCS mapping, and PPDU
// airtime computation used for NAV durations.
package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// Sounding models 802.11ac explicit channel sounding: the AP transmits an
// NDP, clients estimate the channel and feed back a compressed (quantised)
// estimate. Estimation noise and quantisation both perturb the CSI the
// precoder sees; MIDAS's client selection deliberately avoids depending on
// fresh CSI (§3.2.5), while its precoder consumes it per TXOP.
type Sounding struct {
	// EstimationSNRdB is the effective SNR of the channel estimate; the
	// per-entry estimation error is |h|²/SNR. 25 dB is typical of VHT
	// preamble-based estimation at mid-range.
	EstimationSNRdB float64
	// PhaseBits / MagBits are the quantiser widths of the compressed
	// feedback. 802.11ac's Givens-angle codebook uses 9–16 bits per
	// angle pair; we quantise magnitude and phase per entry instead — a
	// documented substitution with the same behavioural effect (lossy,
	// bit-width-controlled feedback).
	PhaseBits int
	MagBits   int
}

// DefaultSounding returns feedback fidelity typical of 802.11ac.
func DefaultSounding() Sounding {
	return Sounding{EstimationSNRdB: 25, PhaseBits: 9, MagBits: 7}
}

// Feedback returns the CSI matrix the AP obtains for true channel h:
// estimation noise followed by magnitude/phase quantisation.
func (s Sounding) Feedback(h *matrix.Mat, src *rng.Source) *matrix.Mat {
	return s.FeedbackInto(&matrix.Mat{}, h, src)
}

// FeedbackInto is Feedback written into dst (reshaped, reusing its
// storage; it must not alias h) and returned.
func (s Sounding) FeedbackInto(dst, h *matrix.Mat, src *rng.Source) *matrix.Mat {
	dst.Reuse(h.Rows(), h.Cols())
	estVar := math.Pow(10, -s.EstimationSNRdB/10)
	for i := 0; i < h.Rows(); i++ {
		for j := 0; j < h.Cols(); j++ {
			v := h.At(i, j)
			p := real(v)*real(v) + imag(v)*imag(v)
			if estVar > 0 {
				v += src.ComplexCircular(p * estVar)
			}
			dst.Set(i, j, s.quantize(v))
		}
	}
	return dst
}

// quantize rounds a complex value to the configured magnitude/phase grid.
// Magnitude is quantised on a per-entry dB grid spanning ±24 dB around
// the value (keeping the quantiser scale-free), phase uniformly over 2π.
// At the default widths the levels come from magTable and phaseTable.
func (s Sounding) quantize(v complex128) complex128 {
	if v == 0 {
		return 0
	}
	mag, ph := cmplx.Abs(v), cmplx.Phase(v)
	var sc [2]float64 // sine and cosine of the phase
	if s.PhaseBits > 0 {
		steps := phaseSteps(s.PhaseBits)
		j := math.Round(ph / (2 * math.Pi) * steps)
		if s.PhaseBits == phaseTableBits {
			sc = phaseTable.at(j)
		} else {
			sc = phaseLevel(j, steps)
		}
	} else {
		sc[0], sc[1] = math.Sincos(ph)
	}
	if s.MagBits > 0 {
		// Quantise log-magnitude with step 48dB/2^bits.
		stepDB := magStepDB(s.MagBits)
		k := math.Round(20 * math.Log10(mag) / stepDB)
		if s.MagBits == magTableBits {
			mag = magTable.at(k)
		} else {
			mag = magLevel(k, stepDB)
		}
	}
	return complex(mag*sc[1], mag*sc[0]) // cmplx.Rect(mag, phase)
}

// magStepDB is the magnitude quantiser's step at a width.
func magStepDB(bits int) float64 { return 48.0 / float64(uint64(1)<<uint(bits)) }

// magLevel is the magnitude of quantiser level k: 10^(k·stepDB/20).
func magLevel(k, stepDB float64) float64 { return math.Pow(10, k*stepDB/20) }

// phaseSteps is the number of phase levels over 2π at a width.
func phaseSteps(bits int) float64 { return float64(uint64(1) << uint(bits)) }

// phaseLevel returns math.Sincos of phase level j's angle, j/steps·2π.
func phaseLevel(j, steps float64) [2]float64 {
	sin, cos := math.Sincos(j / steps * 2 * math.Pi)
	return [2]float64{sin, cos}
}

// Level tables for the default feedback widths, built once at package
// initialisation and only read afterwards. Each entry holds exactly what
// the formula returns for its level; other widths, and levels past a
// table's ends, use the formula. The magnitude table spans ±200 dB
// (1,067 levels at 7 bits); phase levels run from −steps/2 to steps/2.
var (
	magTableBits   = DefaultSounding().MagBits
	phaseTableBits = DefaultSounding().PhaseBits
	magTable       = newLevels(int(math.Ceil(200/magStepDB(magTableBits))), func(k float64) float64 {
		return magLevel(k, magStepDB(magTableBits))
	})
	phaseTable = newLevels(int(phaseSteps(phaseTableBits))/2, func(j float64) [2]float64 {
		return phaseLevel(j, phaseSteps(phaseTableBits))
	})
)

// levels tabulates f over the integer levels −half..half.
type levels[T any] struct {
	half int
	vals []T // vals[k+half] = f(k)
	f    func(k float64) T
}

func newLevels[T any](half int, f func(k float64) T) levels[T] {
	l := levels[T]{half: half, vals: make([]T, 2*half+1), f: f}
	for i := range l.vals {
		l.vals[i] = f(float64(i - half))
	}
	return l
}

// at returns f(k) for an integer-valued k, from the table when k is in
// range. Level 0 goes to f, which keeps the sign of a −0 level (the
// sine of phase −0 is −0).
func (l levels[T]) at(k float64) T {
	if i := k + float64(l.half); k != 0 && i >= 0 && i < float64(len(l.vals)) {
		return l.vals[int(i)]
	}
	return l.f(k)
}

// MCS describes one 802.11ac modulation-and-coding scheme.
type MCS struct {
	Index      int
	Modulation string
	CodeRate   string
	// BitsPerSymbol is data bits per subcarrier per symbol (rate × log2 M).
	BitsPerSymbol float64
	// MinSINRdB is the receiver sensitivity threshold for ~10% PER.
	MinSINRdB float64
}

// Table is the 802.11ac single-stream MCS set (0–9).
var Table = []MCS{
	{0, "BPSK", "1/2", 0.5, 2},
	{1, "QPSK", "1/2", 1.0, 5},
	{2, "QPSK", "3/4", 1.5, 9},
	{3, "16-QAM", "1/2", 2.0, 11},
	{4, "16-QAM", "3/4", 3.0, 15},
	{5, "64-QAM", "2/3", 4.0, 18},
	{6, "64-QAM", "3/4", 4.5, 20},
	{7, "64-QAM", "5/6", 5.0, 25},
	{8, "256-QAM", "3/4", 6.0, 29},
	{9, "256-QAM", "5/6", 6.67, 31},
}

// Select returns the highest MCS whose threshold the SINR meets, or
// (MCS{}, false) when even MCS0 is not decodable. Closed-loop MU-MIMO
// selects MCS directly from CSI (§5.1), so no rate-adaptation loop is
// modelled.
func Select(sinrDB float64) (MCS, bool) {
	best := -1
	for i, m := range Table {
		if sinrDB >= m.MinSINRdB {
			best = i
		}
	}
	if best < 0 {
		return MCS{}, false
	}
	return Table[best], true
}

// ShannonRate returns log2(1+sinr) in bit/s/Hz from a linear SINR.
func ShannonRate(sinr float64) float64 { return math.Log2(1 + sinr) }

// PPDU airtime constants for an 80 MHz VHT transmission.
const (
	// SymbolDuration is the OFDM symbol time with a normal guard interval.
	SymbolDuration = 4 * time.Microsecond
	// VHTPreamble is the duration of the VHT PLCP preamble (L-STF through
	// VHT-SIG-B) for a single sounding/data PPDU.
	VHTPreamble = 40 * time.Microsecond
	// DataSubcarriers80MHz is the number of data subcarriers in an
	// 80 MHz VHT channel.
	DataSubcarriers80MHz = 234
)

// Airtime returns the duration of a PPDU carrying bytes payload bytes at
// the given MCS with nss spatial streams over an 80 MHz channel.
func Airtime(bytes int, m MCS, nss int) (time.Duration, error) {
	if nss < 1 {
		return 0, fmt.Errorf("phy: invalid stream count %d", nss)
	}
	bitsPerSymbol := m.BitsPerSymbol * float64(DataSubcarriers80MHz) * float64(nss)
	if bitsPerSymbol <= 0 {
		return 0, fmt.Errorf("phy: MCS %d carries no bits", m.Index)
	}
	symbols := math.Ceil(float64(bytes*8+22) / bitsPerSymbol) // +SERVICE/tail
	return VHTPreamble + time.Duration(symbols)*SymbolDuration, nil
}
