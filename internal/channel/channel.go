// Package channel models the indoor 5 GHz wireless channel that the MIDAS
// testbed measured: log-distance path loss, log-normal shadow fading and
// Rayleigh small-scale fading, with spatial correlation across co-located
// (CAS) antennas and independent fading across distributed (DAS) antennas.
//
// The paper's WARP testbed is replaced by this statistical model: every
// MIDAS mechanism consumes only the complex gains h_jk from antenna k to
// client j, and the model reproduces the two structural properties those
// mechanisms exploit — the large path-loss disparity across distributed
// antennas, and the higher-rank channel matrices that uncorrelated DAS
// fading produces.
//
// A link's static power is decided in one place, Budget, and a
// network's model and medium share one Links table of those values.
package channel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Params configures the propagation model. Default matches these
// calibration targets: CAS SISO median SNR ≈ 10–15 dB at
// enterprise-office distances; DAS median gain ≈ +5 dB.
type Params struct {
	// CarrierGHz is the carrier frequency; 802.11ac operates at 5 GHz.
	CarrierGHz float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// PathLossExp is the log-distance path loss exponent (≈3 indoors).
	PathLossExp float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation.
	ShadowSigmaDB float64
	// TxPowerDBm is the per-antenna transmit power (802.11ac per-antenna
	// power constraint P, §3.1.1).
	TxPowerDBm float64
	// NoiseFloorDBm is the receiver noise plus interference floor.
	NoiseFloorDBm float64
	// CASCorrelation is the fading correlation coefficient between
	// adjacent co-located antennas (exponential model); 0 for DAS.
	CASCorrelation float64
	// WallDB, RoomW, RoomH and MaxWallDB override the obstruction field's
	// defaults when non-zero, letting environments differ (the enterprise
	// office has larger rooms than the crowded lab, §5.2.2).
	WallDB    float64
	RoomW     float64
	RoomH     float64
	MaxWallDB float64
	// Doppler controls Gauss–Markov channel evolution between frames:
	// h' = sqrt(1-a²)·h + a·innovation, with a = Doppler. 0 freezes the
	// channel within a topology.
	Doppler float64
}

// Default returns the calibrated parameter set used by all experiments.
func Default() Params {
	return Params{
		CarrierGHz:     5.24,
		RefLossDB:      46.7, // free-space loss at 1 m, 5.24 GHz
		PathLossExp:    3.5,
		ShadowSigmaDB:  4.0,
		TxPowerDBm:     24.0,
		NoiseFloorDBm:  -75.0,
		CASCorrelation: 0.6,
		Doppler:        0.05,
	}
}

// NewField builds the obstruction field for these parameters and seed,
// applying any room/wall overrides.
func (p Params) NewField(seed int64) *ShadowField {
	f := NewShadowField(seed, p.ShadowSigmaDB)
	if p.WallDB > 0 {
		f.WallDB = p.WallDB
	}
	if p.RoomW > 0 {
		f.RoomW = p.RoomW
		f.offX = hashToUnit(seed, 0, 0, 2) * f.RoomW
	}
	if p.RoomH > 0 {
		f.RoomH = p.RoomH
		f.offY = hashToUnit(seed, 0, 0, 3) * f.RoomH
	}
	if p.MaxWallDB > 0 {
		f.MaxWallDB = p.MaxWallDB
	}
	return f
}

// PathLossDB returns the distance-dependent path loss in dB at distance
// d metres. Distances below 1 m clamp to the reference distance.
func (p Params) PathLossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return p.RefLossDB + 10*p.PathLossExp*math.Log10(d)
}

// NoiseLinear returns the noise floor in linear milliwatt units.
func (p Params) NoiseLinear() float64 { return stats.Milliwatt(p.NoiseFloorDBm) }

// TxPowerLinear returns the per-antenna power constraint in linear
// milliwatt units.
func (p Params) TxPowerLinear() float64 { return stats.Milliwatt(p.TxPowerDBm) }

// Antenna is a transmit antenna position together with the AP (co-location
// group) it belongs to. Antennas of one CAS AP share correlated fading;
// all other pairs fade independently.
type Antenna struct {
	Pos   geom.Point
	AP    int // AP index; antennas with the same AP and CAS deployment correlate
	Local int // index within the AP's array (spacing order for correlation)
}

// Model generates channel realisations for a fixed set of antennas and
// clients. Shadowing is read once per (antenna, client) pair at
// construction — it models obstacles, which do not change across frames —
// while small-scale fading evolves from frame to frame. The parameters
// and positions are fixed at construction too, so every static per-link
// value is computed once there.
//
// Each client's fading row keeps its own clock: Evolve only advances the
// model's step, and a reader (Gain, Matrix, MatrixInto, SNRdB) first
// brings each stale row it touches up to the current step, drawing that
// row's innovation from the model's stream. A Model is therefore not
// safe for concurrent use, reads included; its owner must read it in a
// deterministic order (the simulators read it in event order).
type Model struct {
	p        Params
	antennas []Antenna
	clients  []geom.Point
	links    Links
	src      *rng.Source
	// amp and mean are the static per-link values, [client·antennas +
	// antenna]: the path-loss-and-shadowing amplitude Gain scales fading
	// by, and MeanRxPower's fading-averaged receive power.
	amp  []float64
	mean []float64
	// fading holds the normalised CN(0,1) gains in the same layout, one
	// row per client, followed by one scratch row for innovations.
	fading []complex128
	// step counts Evolve calls; synced[j] is the step client j's fading
	// row was last brought up to.
	step   int
	synced []int
	// logKeep2 is ln(1−Doppler²), the log of one step's squared
	// retention keep², where keep = √(1−Doppler²).
	logKeep2 float64
	// corr lists the correlated antenna groups, ordered by AP; empty
	// without CAS correlation. Fixed at construction.
	corr []corrGroup
}

// corrGroup is one AP's antennas (two or more, in array order) and the
// Cholesky factor of their exponential correlation matrix, shared by
// every group of the same size.
type corrGroup struct {
	idx []int
	l   [][]float64
}

// NewModel builds a channel model over the budget and a new link table
// (Links) whose first sites are the antennas and then the clients, and
// reads their shadow factors there. correlated selects CAS-style antenna
// correlation within each AP group (set true for co-located arrays). The
// source is split internally; the caller's stream is not advanced.
func NewModel(b Budget, antennas []Antenna, clients []geom.Point, correlated bool, src *rng.Source) *Model {
	p, n, sites := b.P, len(clients)*len(antennas), len(antennas)+len(clients)
	static := make([]float64, 2*n) // amp, then mean
	m := &Model{
		p:        p,
		antennas: antennas,
		clients:  clients,
		links:    Links{Budget: b, pos: make([]geom.Point, 0, sites), pairs: make([]linkPair, 0, sites*(sites+1)/2)},
		src:      src.Split("channel"),
		amp:      static[:n:n],
		mean:     static[n:],
		fading:   make([]complex128, (len(clients)+1)*len(antennas)),
		synced:   make([]int, len(clients)),
		logKeep2: math.Log1p(-p.Doppler * p.Doppler),
	}
	if correlated && p.CASCorrelation != 0 {
		m.corr = corrGroups(antennas, p.CASCorrelation)
	}
	for _, a := range antennas {
		m.links.add(a.Pos) // antenna k is site k
	}
	txPow := p.TxPowerLinear()
	for j := range clients {
		cs := m.links.add(clients[j])
		for k := range antennas {
			shadow := m.links.Shadow(k, cs)
			pathGain := stats.Linear(-p.PathLossDB(antennas[k].Pos.Dist(clients[j])))
			i := m.link(j, k)
			m.amp[i] = math.Sqrt(pathGain * shadow)
			// Not links.Power: txPow·pathGain·shadow rounds differently
			// from the budget's PowerAtPoint·shadow.
			m.mean[i] = txPow * pathGain * shadow
		}
	}
	m.redraw()
	return m
}

// link is the index of the (client j, antenna k) pair in amp and mean.
func (m *Model) link(j, k int) int { return j*len(m.antennas) + k }

// Links returns the model's link table, for the network's medium.
func (m *Model) Links() *Links { return &m.links }

// NumAntennas returns the number of transmit antennas.
func (m *Model) NumAntennas() int { return len(m.antennas) }

// NumClients returns the number of client positions.
func (m *Model) NumClients() int { return len(m.clients) }

// row returns client j's fading row as it stands, stale or not.
func (m *Model) row(j int) []complex128 {
	n := len(m.antennas)
	return m.fading[j*n : (j+1)*n : (j+1)*n]
}

// redraw resamples all small-scale fading from scratch, in client order,
// as of the current step.
func (m *Model) redraw() {
	for j := range m.clients {
		m.drawFadingRow(m.row(j))
		m.synced[j] = m.step
	}
}

// corrGroups groups antennas by AP, in AP order and array order within
// an AP, keeping the groups of two or more; groups of one size share one
// Cholesky factor.
func corrGroups(antennas []Antenna, rho float64) []corrGroup {
	order := make([]int, len(antennas))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(antennas[a].AP, antennas[b].AP) })
	var groups []corrGroup
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && antennas[order[hi]].AP == antennas[order[lo]].AP {
			hi++
		}
		if idx := order[lo:hi]; len(idx) >= 2 {
			var l [][]float64
			for _, g := range groups {
				if len(g.idx) == len(idx) {
					l = g.l
					break
				}
			}
			if l == nil {
				l = choleskyExpCorr(rho, len(idx))
			}
			groups = append(groups, corrGroup{idx: idx, l: l})
		}
		lo = hi
	}
	return groups
}

// drawFadingRow fills f with CN(0,1) fading for one client across all
// antennas, applying intra-AP correlation when configured: within each
// group, the exponential correlation model R_ik = ρ^{|i-k|} via Cholesky.
// Going down the rows lets each group transform in place, since row i
// reads only draws 0..i.
func (m *Model) drawFadingRow(f []complex128) {
	for k := range f {
		f[k] = m.src.ComplexCircular(1)
	}
	for _, g := range m.corr {
		for i := len(g.idx) - 1; i >= 0; i-- {
			var s complex128
			for q := 0; q <= i; q++ {
				s += complex(g.l[i][q], 0) * f[g.idx[q]]
			}
			f[g.idx[i]] = s
		}
	}
}

// choleskyExpCorr returns the lower Cholesky factor of the n×n exponential
// correlation matrix R_ik = rho^{|i-k|}.
func choleskyExpCorr(rho float64, n int) [][]float64 {
	r := make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		for k := range r[i] {
			d := i - k
			if d < 0 {
				d = -d
			}
			r[i][k] = math.Pow(rho, float64(d))
		}
	}
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k <= i; k++ {
			s := r[i][k]
			for q := 0; q < k; q++ {
				s -= l[i][q] * l[k][q]
			}
			if i == k {
				if s <= 0 {
					panic(fmt.Sprintf("channel: correlation matrix not PD (rho=%v)", rho))
				}
				l[i][i] = math.Sqrt(s)
			} else {
				l[i][k] = s / l[k][k]
			}
		}
	}
	return l
}

// Evolve advances the small-scale fading by one coherence step of the
// Gauss–Markov model f' = keep·f + Doppler·w, keep = √(1−Doppler²), with
// w a fresh correlated CN(0,1) row. It costs O(1): it only advances the
// model's step, and each client's row takes the steps it missed when it
// is next read. With Doppler 0 this is a no-op.
func (m *Model) Evolve() {
	if m.p.Doppler != 0 {
		m.step++
	}
}

// sync brings client j's fading row up to the current step. A row that
// missed n steps takes them in one draw: f_n = keepⁿ·f_0 + √(1−keep²ⁿ)·w,
// with w one drawFadingRow innovation. The n-step innovation of the
// one-step recursion has covariance (1−keep²ⁿ)·R, R the row's antenna
// correlation, so the jump is exact in distribution.
func (m *Model) sync(j int) {
	n := m.step - m.synced[j]
	if n == 0 {
		return
	}
	m.synced[j] = m.step
	logKeep2N := float64(n) * m.logKeep2
	keepN := math.Exp(logKeep2N / 2)
	scale := math.Sqrt(-math.Expm1(logKeep2N))
	f := m.row(j)
	w := m.row(len(m.clients))
	m.drawFadingRow(w)
	for k := range f {
		f[k] = complex(keepN*real(f[k])+scale*real(w[k]), keepN*imag(f[k])+scale*imag(w[k]))
	}
}

// Gain returns the instantaneous complex channel gain h_jk from antenna k
// to client j, in sqrt-milliwatt units per unit transmit amplitude: the
// received power from power P on antenna k is |h_jk|²·P. It first brings
// client j's fading row up to date (see Model).
func (m *Model) Gain(j, k int) complex128 {
	m.sync(j)
	return m.gain(m.link(j, k))
}

// gain is Gain of link i for an up-to-date row.
func (m *Model) gain(i int) complex128 {
	return complex(m.amp[i], 0) * m.fading[i]
}

// Matrix returns the |clients|×|antennas| channel matrix H with entries
// h_jk for the given client subset (nil means all clients) and antenna
// subset (nil means all antennas). Rows are clients, columns antennas, as
// in Eq. 4 of the paper.
func (m *Model) Matrix(clientIdx, antennaIdx []int) *matrix.Mat {
	if clientIdx == nil {
		clientIdx = identityIndex(len(m.clients))
	}
	if antennaIdx == nil {
		antennaIdx = identityIndex(len(m.antennas))
	}
	return m.MatrixInto(&matrix.Mat{}, clientIdx, antennaIdx)
}

// MatrixInto is Matrix for explicit client and antenna subsets, written
// into dst (reshaped, reusing its storage) and returned, so a caller that
// keeps dst across calls does not allocate. Stale rows are brought up to
// date in clientIdx order.
func (m *Model) MatrixInto(dst *matrix.Mat, clientIdx, antennaIdx []int) *matrix.Mat {
	dst.Reuse(len(clientIdx), len(antennaIdx))
	for r, j := range clientIdx {
		m.sync(j)
		for c, k := range antennaIdx {
			dst.Set(r, c, m.gain(m.link(j, k)))
		}
	}
	return dst
}

func identityIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// MeanRxPower returns the shadowed (but fading-averaged) receive power in
// linear mW at client j from antenna k at full per-antenna power. This is
// the long-term RSSI that MIDAS's virtual packet tagging ranks antennas by
// (§3.2.4).
func (m *Model) MeanRxPower(j, k int) float64 { return m.mean[m.link(j, k)] }

// SNRdB returns the instantaneous single-antenna link SNR in dB from
// antenna k to client j at full per-antenna power.
func (m *Model) SNRdB(j, k int) float64 {
	g := m.Gain(j, k)
	p := (real(g)*real(g) + imag(g)*imag(g)) * m.p.TxPowerLinear()
	return stats.DB(p / m.p.NoiseLinear())
}

// PowerAtPoint returns the received power (linear mW) at an arbitrary
// point from a transmitter at txPos sending with txPowerDBm, using path
// loss only (no shadowing or fading). Budget adds the shadow field.
func (p Params) PowerAtPoint(txPos, rxPos geom.Point, txPowerDBm float64) float64 {
	d := txPos.Dist(rxPos)
	return stats.Milliwatt(txPowerDBm - p.PathLossDB(d))
}
