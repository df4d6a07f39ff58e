package sim

import (
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Network is a running multi-AP wireless network: the deployment, the
// fading channel, the shared medium and one station per AP.
type Network struct {
	Eng      *mac.Engine
	Air      *mac.Air
	Dep      *topology.Deployment
	Model    *channel.Model
	P        channel.Params
	Stations []*Station

	src *rng.Source

	// antSite and clientSite are each antenna's and client's site in the
	// network's link table (channel.Links), which the model and the
	// medium share: transmissions and data-plane queries name positions
	// by site.
	antSite, clientSite []int

	// noiseLin and txPowLin cache P.NoiseLinear()/P.TxPowerLinear() —
	// both are math.Pow conversions that the per-TXOP hot path (precode,
	// streamRates, soundingSurvivors) would otherwise recompute on every
	// call.
	noiseLin float64
	txPowLin float64
}

// NewNetwork builds a network over the deployment with one station per AP,
// all using opts. The seed determines fading, backoff draws and sounding
// noise; the deployment carries its own placement randomness.
func NewNetwork(dep *topology.Deployment, p channel.Params, opts StationOpts, src *rng.Source) *Network {
	eng := mac.NewEngine()
	model := dep.Model(p, src.Split("model"))
	links := model.Links()
	n := &Network{
		Eng: eng,
		// Sensing and payload propagate through the same walls, and the
		// medium reads the links the model already computed.
		Air:      mac.NewAir(eng, links),
		Dep:      dep,
		Model:    model,
		P:        p,
		src:      src,
		noiseLin: p.NoiseLinear(),
		txPowLin: p.TxPowerLinear(),
	}
	n.antSite = make([]int, len(dep.Antennas))
	for k, a := range dep.Antennas {
		n.antSite[k] = links.Site(a.Pos)
	}
	n.clientSite = make([]int, len(dep.Clients))
	for j, c := range dep.Clients {
		n.clientSite[j] = links.Site(c)
	}
	for ap := range dep.APs {
		n.Stations = append(n.Stations, newStation(n, ap, opts))
	}
	return n
}

// Run starts every station and processes events for the given duration.
func (n *Network) Run(d time.Duration) {
	for _, st := range n.Stations {
		st.Start()
	}
	n.Eng.Run(n.Eng.Now() + d)
}

// NetworkCapacity returns the aggregate delivered rate in bit/s/Hz —
// total bits·Hz⁻¹ delivered divided by elapsed time, the paper's §5
// capacity metric summed over the network.
func (n *Network) NetworkCapacity() float64 {
	if n.Eng.Now() == 0 {
		return 0
	}
	total := 0.0
	for _, st := range n.Stations {
		total += st.BitsPerHz
	}
	return total / n.Eng.Now().Seconds()
}

// TotalTXOPs sums transmit opportunities across stations.
func (n *Network) TotalTXOPs() int {
	t := 0
	for _, st := range n.Stations {
		t += st.TXOPs
	}
	return t
}

// TotalStreams sums MU-MIMO streams served across stations.
func (n *Network) TotalStreams() int {
	s := 0
	for _, st := range n.Stations {
		s += st.StreamsServed
	}
	return s
}

// OverhearingSource searches derived random sources until the obstruction
// field it would induce lets every AP pair in the deployment sense each
// other — the §5.4 testbed premise ("three APs that can overhear each
// other"). The paper satisfied it by physically choosing AP spots; we
// satisfy it by choosing among floor plans. Returns the found source (the
// last candidate when none qualifies within tries).
func OverhearingSource(dep *topology.Deployment, p channel.Params, src *rng.Source, tries int) *rng.Source {
	var cand int64
	for i := 0; i < tries; i++ {
		cand = rng.SplitNSeed(src.Seed(), "overhear", i)
		// The field NewNetwork's model will derive.
		b := channel.Budget{P: p, Field: p.ModelField(rng.SplitSeed(cand, "model"))}
		if allPairsOverhear(dep, b) {
			break
		}
	}
	return rng.New(cand)
}

func allPairsOverhear(dep *topology.Deployment, b channel.Budget) bool {
	for i := 0; i < len(dep.APs); i++ {
		for j := i + 1; j < len(dep.APs); j++ {
			if stats.DBm(b.Power(dep.APs[i], dep.APs[j])) < mac.DefaultCSThresholdDBm {
				return false
			}
		}
	}
	return true
}

// MinAssocSNRdB is the mean link SNR a client needs from at least one of
// its AP's antennas to associate. Clients below it would never join the
// BSS (they cannot decode beacons), so experiment client sets contain
// only associated clients — as any testbed's do.
const MinAssocSNRdB = 6.0

// EnsureAssociated resamples every client position that cannot reach any
// of its AP's antennas at MinAssocSNRdB through the floor plan the model
// source will induce. Deployment geometry stays deterministic in
// (deployment seed, model seed).
func EnsureAssociated(dep *topology.Deployment, p channel.Params, modelSrc *rng.Source) {
	b := channel.Budget{P: p, Field: p.ModelField(modelSrc.Seed())}
	redraw := modelSrc.Split("assoc")
	noise := p.NoiseLinear()
	apAnts := make([][]int, len(dep.APs))
	for ap := range apAnts {
		apAnts[ap] = dep.AntennasOf(ap)
	}
	reachable := func(ap int, pos geom.Point) bool {
		for _, k := range apAnts[ap] {
			if stats.DB(b.Power(dep.Antennas[k].Pos, pos)/noise) >= MinAssocSNRdB {
				return true
			}
		}
		return false
	}
	for j := range dep.Clients {
		ap := dep.ClientAP[j]
		for try := 0; try < 200 && !reachable(ap, dep.Clients[j]); try++ {
			x, y := redraw.PointInDisc(dep.Cfg.CoverageRadius)
			cand := geom.Pt(dep.APs[ap].X+x, dep.APs[ap].Y+y)
			if dep.Cfg.Region != nil && !dep.Cfg.Region.Contains(cand) {
				continue
			}
			dep.Clients[j] = cand
		}
	}
}
