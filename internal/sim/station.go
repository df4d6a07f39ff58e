// Package sim binds the substrates together into running networks — the
// role the WARP testbed plays in the paper. It provides closed-loop AP
// station drivers (MIDAS and CAS) on top of the discrete-event medium,
// and one per-topology function per figure of the evaluation (§5):
// given the options, a topology index t and the experiment's root
// stream, each computes that topology's record. The loop over
// topologies and the fold of the records into a figure live in
// internal/scenario.
package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/matrix"
	"repro/internal/phy"
	"repro/internal/precoding"
	"repro/internal/rng"
)

// Kind selects the AP behaviour under test.
type Kind int

// AP behaviours.
const (
	// KindCAS is the conventional 802.11ac AP: one channel state, all
	// antennas engaged, naive-scaled ZFBF precoding.
	KindCAS Kind = iota
	// KindMIDAS is the paper's system: per-antenna sensing, opportunistic
	// antenna selection, virtual packet tagging, DRR client selection and
	// power-balanced precoding.
	KindMIDAS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindMIDAS {
		return "MIDAS"
	}
	return "CAS"
}

// PrecoderKind selects the downlink precoder.
type PrecoderKind int

// Precoder selection for stations and PHY experiments.
const (
	PrecoderNaive PrecoderKind = iota
	PrecoderPowerBalanced
)

// StationOpts configures one AP station.
type StationOpts struct {
	Kind     Kind
	Precoder PrecoderKind
	Tagging  bool // virtual packet tagging (MIDAS only; ablation switch)
	// TagWidth overrides the number of tagged antennas per packet when
	// > 0 (paper default 2); only meaningful with Tagging.
	TagWidth  int
	Scheduler core.Scheduler
	// SchedulerName selects a built-in policy when Scheduler is nil:
	// "drr" (default), "rr" or "random".
	SchedulerName string
	// WaitWindow overrides the opportunistic-selection window when
	// HasWaitWindow is set (paper default: one DIFS).
	WaitWindow    time.Duration
	HasWaitWindow bool
	// TrafficMix weights generated traffic across EDCA access categories
	// (§3.3); nil means all best-effort. The highest-priority backlogged
	// class becomes each TXOP's primary access class.
	TrafficMix map[mac.AccessCategory]float64
	// TXOP is the data-phase duration of each transmit opportunity.
	TXOP time.Duration
	// PacketBytes sizes generated traffic.
	PacketBytes int
	// QueueDepth keeps this many packets queued per client (full buffer).
	QueueDepth int
	Sounding   phy.Sounding
}

// DefaultStationOpts returns the paper-default configuration for a kind.
func DefaultStationOpts(kind Kind) StationOpts {
	opts := StationOpts{
		Kind:        kind,
		Precoder:    PrecoderNaive,
		Tagging:     false,
		TXOP:        3 * time.Millisecond,
		PacketBytes: 1500,
		QueueDepth:  8,
		Sounding:    phy.DefaultSounding(),
	}
	if kind == KindMIDAS {
		opts.Precoder = PrecoderPowerBalanced
		opts.Tagging = true
	}
	return opts
}

// Station is one AP (with its antennas and associated clients) running a
// closed MAC+PHY loop against the shared medium.
type Station struct {
	ID   int
	Opts StationOpts

	net      *Network
	antennas []int // global antenna indices
	clients  []int // global client indices

	midas *core.Controller
	cas   *core.CASController

	backoffs []*mac.Backoff // per antenna (MIDAS) or single (CAS)
	physBusy []bool
	inTXOP   bool
	src      *rng.Source
	traffic  *rng.Source
	// navRecheck[i] re-evaluates contender i's medium when a NAV set by
	// an overheard frame expires.
	navRecheck []func()

	// The running TXOP. A station runs one TXOP at a time, so its stages
	// (beginTXOP, soundingDone, dataPhase, sampleRates, finishTXOP) pass
	// their state through these fields and are scheduled through
	// callbacks bound once in newStation: a steady-state TXOP allocates
	// nothing.
	txAnts    []int // engaged antennas (controller-owned)
	txClients []int // selected clients (controller-owned)
	survivors []int // clients whose sounding decoded
	txSites   []int // txAnts' medium sites
	baDur     time.Duration
	h, est    matrix.Mat  // the true channel and the sounded estimate
	v         *matrix.Mat // the precoder, owned by solver

	onBegin, onSounded, onData, onRates, onFinish func()
	// txID is the station's last transmission. Its transmissions never
	// overlap (data starts SIFS after sounding ends), so this is the only
	// one of its own that can still reach its listeners.
	txID int

	// solver and rates are the station's reusable precoding state: one
	// precoder is computed per TXOP for the station's whole lifetime, so
	// steady-state TXOPs perform no linear-algebra heap allocations.
	solver *precoding.Solver
	rates  []float64

	// Metrics.
	TXOPs          int
	StreamsServed  int
	BitsPerHz      float64 // Σ rate·time — capacity·seconds, per Hz
	SoundingOvhd   time.Duration
	AirtimeData    time.Duration
	CollidedStarts int
}

// newStation wires a station into the network.
func newStation(net *Network, id int, opts StationOpts) *Station {
	st := &Station{
		ID:       id,
		Opts:     opts,
		net:      net,
		antennas: net.Dep.AntennasOf(id),
		clients:  net.Dep.ClientsOf(id),
		src:      net.src.SplitN("station", id),
		solver:   precoding.NewSolver(),
		txID:     -1,
	}
	st.onBegin, st.onSounded, st.onData = st.beginTXOP, st.soundingDone, st.dataPhase
	st.onRates, st.onFinish = st.sampleRates, st.finishTXOP
	st.traffic = st.src.Split("traffic")
	sched := opts.Scheduler
	if sched == nil {
		switch opts.SchedulerName {
		case "rr":
			sched = core.NewRoundRobinScheduler()
		case "random":
			r := st.src.Split("sched")
			sched = &core.RandomScheduler{Intn: r.Intn}
		}
	}
	if opts.Kind == KindMIDAS {
		cfg := core.DefaultConfig(st.antennas)
		if sched != nil {
			cfg.Scheduler = sched
		}
		if opts.HasWaitWindow {
			cfg.WaitWindow = opts.WaitWindow
		}
		if !opts.Tagging {
			cfg.TagWidth = 0 // untagged packets are eligible everywhere
		} else if opts.TagWidth > 0 {
			cfg.TagWidth = opts.TagWidth
		}
		st.midas = core.NewController(cfg, st.net.Model)
	} else {
		st.cas = core.NewCASController(st.antennas, sched, 0)
	}
	st.fillQueues()
	st.installRadios()
	return st
}

// fillQueues tops up every client's queue to the configured depth.
func (st *Station) fillQueues() {
	for _, cl := range st.clients {
		for st.queueLenFor(cl) < st.Opts.QueueDepth {
			p := core.Packet{
				Client:   cl,
				TID:      st.drawTID(),
				Size:     st.Opts.PacketBytes,
				Enqueued: st.net.Eng.Now(),
			}
			if st.midas != nil {
				st.midas.Enqueue(p)
			} else {
				st.cas.Enqueue(p)
			}
		}
	}
}

// acTID maps each access category to a representative 802.11e TID.
var acTID = map[mac.AccessCategory]uint8{
	mac.ACVoice:      6,
	mac.ACVideo:      5,
	mac.ACBestEffort: 0,
	mac.ACBackground: 1,
}

// drawTID samples a TID from the configured traffic mix (best effort
// when no mix is set).
func (st *Station) drawTID() uint8 {
	if len(st.Opts.TrafficMix) == 0 {
		return 0
	}
	total := 0.0
	for _, ac := range []mac.AccessCategory{mac.ACVoice, mac.ACVideo, mac.ACBestEffort, mac.ACBackground} {
		total += st.Opts.TrafficMix[ac]
	}
	if total <= 0 {
		return 0
	}
	x := st.traffic.Float64() * total
	for _, ac := range []mac.AccessCategory{mac.ACVoice, mac.ACVideo, mac.ACBestEffort, mac.ACBackground} {
		x -= st.Opts.TrafficMix[ac]
		if x < 0 {
			return acTID[ac]
		}
	}
	return 0
}

func (st *Station) queueLenFor(cl int) int {
	if st.midas != nil {
		return st.midas.Queue.LenFor(cl)
	}
	return st.cas.Queue.LenFor(cl)
}

// installRadios sets up per-antenna carrier sensing, NAV listeners and
// backoff machines.
func (st *Station) installRadios() {
	eng, air := st.net.Eng, st.net.Air
	if st.Opts.Kind == KindMIDAS {
		st.backoffs = make([]*mac.Backoff, len(st.antennas))
		st.physBusy = make([]bool, len(st.antennas))
		st.navRecheck = make([]func(), len(st.antennas))
		for i, a := range st.antennas {
			i, a := i, a
			st.navRecheck[i] = func() { st.mediumChanged(i) }
			pos := st.net.Dep.Antennas[a].Pos
			params := mac.DefaultEDCA(mac.ACBestEffort)
			st.backoffs[i] = mac.NewBackoff(eng, params, st.src.SplitN("backoff", i),
				func() { st.granted(a) })
			air.Watch(pos, func(busy bool) {
				st.physBusy[i] = busy
				st.mediumChanged(i)
			})
			air.Listen(mac.Listener{Pos: pos, Fn: func(rx mac.Rx) { st.overheard(i, rx) }})
		}
	} else {
		st.backoffs = make([]*mac.Backoff, 1)
		st.physBusy = make([]bool, 1)
		st.navRecheck = []func(){func() { st.mediumChanged(0) }}
		pos := st.net.Dep.APs[st.ID]
		params := mac.DefaultEDCA(mac.ACBestEffort)
		st.backoffs[0] = mac.NewBackoff(eng, params, st.src.Split("backoff"),
			func() { st.granted(-1) })
		air.Watch(pos, func(busy bool) {
			st.physBusy[0] = busy
			st.mediumChanged(0)
		})
		air.Listen(mac.Listener{Pos: pos, Fn: func(rx mac.Rx) { st.overheard(0, rx) }})
	}
}

// Start begins contention on all of the station's contenders.
func (st *Station) Start() {
	for i, b := range st.backoffs {
		if st.busyFor(i) {
			b.MediumBusy()
		}
		b.Start()
	}
}

// busyFor combines physical and virtual carrier sense for contender i.
func (st *Station) busyFor(i int) bool {
	now := st.net.Eng.Now()
	if st.physBusy[i] {
		return true
	}
	if st.midas != nil {
		return st.midas.Navs.Busy(i, now)
	}
	return st.cas.NAVBusy(now)
}

// mediumChanged propagates a busy/idle edge to the backoff machine(s).
func (st *Station) mediumChanged(i int) {
	if st.inTXOP {
		return
	}
	if st.busyFor(i) {
		st.backoffs[i].MediumBusy()
	} else {
		st.backoffs[i].MediumIdle()
	}
}

// overheard handles a frame arriving at contender/antenna i.
func (st *Station) overheard(i int, rx mac.Rx) {
	if !rx.Decodable || rx.NAV == 0 {
		return
	}
	if rx.From == st.txID {
		return // our own frame
	}
	until := rx.End + rx.NAV
	if st.midas != nil {
		st.midas.Navs.Update(i, until)
	} else {
		st.cas.UpdateNAV(0, until)
	}
	// NAV start freezes backoff; expiry re-evaluates the medium.
	st.mediumChanged(i)
	st.net.Eng.At(until, st.navRecheck[i])
}
