package sim

import (
	"time"

	"repro/internal/mac"
	"repro/internal/matrix"
	"repro/internal/phy"
	"repro/internal/precoding"
	"repro/internal/stats"
)

// The per-TXOP MU-MIMO pipeline (§3.2.1): antenna selection has happened
// by the time granted() fires; this file implements steps 2–6 — client
// selection, channel estimation (sounding), power-balanced precoding, the
// data burst, and fairness counter updates.

// granted fires when a contender wins channel access. winnerAntenna is the
// global antenna index for MIDAS, -1 for the CAS single contender.
func (st *Station) granted(winnerAntenna int) {
	if st.inTXOP {
		return
	}
	now := st.net.Eng.Now()
	waitUntil := now
	if st.midas != nil {
		st.txAnts, waitUntil = st.midas.SelectAntennas(winnerAntenna, now, st.physBusy)
	} else {
		st.txAnts = st.cas.SelectAntennas()
	}
	if len(st.txAnts) == 0 {
		st.restartContention()
		return
	}
	st.inTXOP = true
	for _, b := range st.backoffs {
		b.Stop()
	}
	// Opportunistic wait for NAVs about to expire (§3.2.3).
	st.net.Eng.At(waitUntil, st.onBegin)
}

// beginTXOP selects clients and runs the sounding phase.
func (st *Station) beginTXOP() {
	// §3.3: the highest-priority backlogged class is the TXOP's primary
	// access class; secondary classes may top up the MU group.
	var clients []int
	if st.midas != nil {
		if primary, ok := st.midas.Queue.PrimaryAC(); ok {
			clients = st.midas.SelectClientsEDCA(st.txAnts, primary)
		}
	} else {
		if primary, ok := st.cas.Queue.PrimaryAC(); ok {
			clients = st.cas.SelectClientsEDCA(primary)
		}
	}
	if len(clients) == 0 {
		st.abortTXOP()
		return
	}
	if len(clients) > len(st.txAnts) {
		clients = clients[:len(st.txAnts)]
	}
	st.txClients = clients

	st.txSites = st.txSites[:0]
	for _, a := range st.txAnts {
		st.txSites = append(st.txSites, st.net.antSite[a])
	}
	soundDur := st.soundingDuration(len(clients))
	st.baDur = st.blockAckDuration(len(clients))
	// The NDPA's Duration field reserves the rest of the TXOP for
	// overhearers' NAVs (§3.3).
	if !st.startTx(soundDur, mac.SIFS+st.Opts.TXOP+mac.SIFS+st.baDur) {
		return
	}
	st.SoundingOvhd += soundDur
	// Clients whose sounding exchange is jammed by a colliding
	// transmission drop out of the group; if nobody survives, the TXOP
	// is lost — the CSMA collision penalty.
	st.net.Eng.Schedule(soundDur-time.Nanosecond, st.onSounded)
}

// soundingDone runs just before the sounding exchange ends.
func (st *Station) soundingDone() {
	if len(st.soundingSurvivors()) == 0 {
		st.CollidedStarts++
		st.collide()
		return
	}
	st.net.Eng.Schedule(mac.SIFS+time.Nanosecond, st.onData)
}

// startTx puts a frame announcing nav on the air from the TXOP's
// antennas for airtime and records it as the station's own. On failure
// it aborts the TXOP and returns false.
func (st *Station) startTx(airtime, nav time.Duration) bool {
	id, err := st.net.Air.StartTx(mac.Tx{Antennas: st.txSites, Airtime: airtime, NAV: nav})
	if err != nil {
		st.abortTXOP()
		return false
	}
	st.txID = id
	return true
}

// soundingSurvivors sets st.survivors to the selected clients whose
// sounding exchange decoded cleanly given the transmissions that
// overlapped it.
func (st *Station) soundingSurvivors() []int {
	noise := st.net.noiseLin
	capture := st.net.Air.CaptureSINR()
	out := st.survivors[:0]
	for _, cl := range st.txClients {
		site := st.net.clientSite[cl]
		sig := st.net.Air.TxSignalAt(st.txID, site)
		interf := st.net.Air.OverlapInterference(st.txID, site)
		if sig/(noise+interf) >= capture {
			out = append(out, cl)
		}
	}
	st.survivors = out
	return out
}

// collide ends the TXOP as a loss: contention restarts with a doubled
// window, as after any failed 802.11 transmission.
func (st *Station) collide() {
	st.inTXOP = false
	for i, b := range st.backoffs {
		if st.busyFor(i) {
			b.MediumBusy()
		} else {
			b.MediumIdle()
		}
		b.Collision()
	}
}

// dataPhase executes the precoded MU-MIMO burst to the sounding
// survivors and schedules its accounting.
func (st *Station) dataPhase() {
	// The channel has moved since the last TXOP.
	st.net.Model.Evolve()

	h := st.net.Model.MatrixInto(&st.h, st.survivors, st.txAnts) // true channel
	est := st.Opts.Sounding.FeedbackInto(&st.est, h, st.src)     // what sounding returned
	v, ok := st.precode(est)
	if !ok {
		st.abortTXOP()
		return
	}
	st.v = v

	// Announce the burst (NAV covers the BlockAck phase).
	dataDur := st.Opts.TXOP
	if !st.startTx(dataDur, mac.SIFS+st.baDur) {
		return
	}
	st.AirtimeData += dataDur

	// Sample other-cell interference just before the burst ends, when the
	// overlap set is complete.
	st.net.Eng.Schedule(dataDur-time.Nanosecond, st.onRates)
	st.net.Eng.Schedule(dataDur+mac.SIFS+st.baDur, st.onFinish)
}

// sampleRates accounts the burst's delivered capacity.
func (st *Station) sampleRates() {
	for _, r := range st.streamRates(&st.h, st.v, st.survivors, st.txID) {
		st.BitsPerHz += r * st.Opts.TXOP.Seconds()
	}
}

// precode runs the configured precoder on the estimated channel through
// the station's long-lived Solver: the returned matrix is solver-owned
// and stays valid until the next TXOP's precode call, which is after this
// TXOP's rates have been accounted. Steady-state calls do not allocate.
func (st *Station) precode(est *matrix.Mat) (*matrix.Mat, bool) {
	prob := precoding.Problem{
		H:               est,
		PerAntennaPower: st.net.txPowLin,
		Noise:           st.net.noiseLin,
	}
	if st.Opts.Precoder == PrecoderPowerBalanced {
		if v, _, err := st.solver.PowerBalanced(prob); err == nil {
			return v, true
		}
	}
	if v, err := st.solver.NaiveScaled(prob); err == nil {
		return v, true
	}
	return nil, false
}

// streamRates returns per-stream Shannon rates (bit/s/Hz) for the true
// channel h under precoder v, including residual inter-stream interference
// (from CSI error) and other-cell interference sampled from the medium.
// The SINR matrix scratch and the returned slice are reused across TXOPs;
// callers must consume the result before the next call.
func (st *Station) streamRates(h, v *matrix.Mat, clients []int, txID int) []float64 {
	noise := st.net.noiseLin
	s := st.solver.SINRMatrix(h, v, noise)
	n := h.Rows()
	if cap(st.rates) < n {
		st.rates = make([]float64, n)
	} else {
		st.rates = st.rates[:n]
	}
	rates := st.rates
	for j := 0; j < n; j++ {
		rates[j] = 0
		interf := 0.0
		for i := 0; i < n; i++ {
			if i != j {
				interf += real(s.At(i, j))
			}
		}
		other := st.net.Air.WeightedInterference(txID, st.net.clientSite[clients[j]]) / noise
		sinr := real(s.At(j, j)) / (1 + interf + other)
		// A stream below the lowest MCS's sensitivity delivers nothing
		// (§5.1 maps SINR to rate through the closed-loop MCS choice;
		// below MCS0 the PPDU is undecodable).
		if _, ok := phy.Select(stats.DB(sinr)); !ok {
			continue
		}
		rates[j] = phy.ShannonRate(sinr)
	}
	return rates
}

// finishTXOP updates fairness counters for the served survivors, refills
// traffic and resumes contention.
func (st *Station) finishTXOP() {
	clients, txop := st.survivors, st.Opts.TXOP
	if st.midas != nil {
		st.midas.Dequeue(clients)
		st.midas.FinishTXOP(clients, txop)
	} else {
		st.cas.Dequeue(clients)
		st.cas.FinishTXOP(clients, txop)
	}
	st.TXOPs++
	st.StreamsServed += len(clients)
	st.fillQueues()
	for _, b := range st.backoffs {
		b.Success()
	}
	st.restartContention()
}

func (st *Station) abortTXOP() { st.restartContention() }

// restartContention leaves the TXOP state and restarts every backoff with
// fresh medium state.
func (st *Station) restartContention() {
	st.inTXOP = false
	for i, b := range st.backoffs {
		if st.busyFor(i) {
			b.MediumBusy()
		} else {
			b.MediumIdle()
		}
		b.Start()
	}
}

// soundingDuration models the NDPA + NDP + per-client feedback exchange.
func (st *Station) soundingDuration(nClients int) time.Duration {
	ndpa, _ := phy.Airtime(20+3*nClients, phy.Table[0], 1)
	ndp := phy.VHTPreamble
	bf, _ := phy.Airtime(29+16*len(st.antennas), phy.Table[2], 1)
	return ndpa + mac.SIFS + ndp + time.Duration(nClients)*(mac.SIFS+bf)
}

// blockAckDuration models the sequential per-client BlockAck phase.
func (st *Station) blockAckDuration(nClients int) time.Duration {
	ba, _ := phy.Airtime(32, phy.Table[0], 1)
	if nClients <= 0 {
		return 0
	}
	return time.Duration(nClients)*ba + time.Duration(nClients-1)*mac.SIFS
}
