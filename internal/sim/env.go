package sim

import (
	"repro/internal/channel"
	"repro/internal/topology"
)

// This file defines the override structs through which declarative
// scenario specs (internal/scenario) parameterize the figure drivers.
// Every field is optional; the zero value of each struct is a strict
// no-op, so drivers called with zero overrides reproduce the paper
// experiments bit-for-bit.

// EnvOverrides adjusts an experiment environment's channel and coverage
// defaults. Nil fields keep the environment's own values (the office
// presets of experiments_phy.go, channel.Default() elsewhere).
type EnvOverrides struct {
	ShadowSigmaDB  *float64
	CASCorrelation *float64
	WallDB         *float64
	MaxWallDB      *float64
	RoomW          *float64
	RoomH          *float64
	CoverageRadius *float64
}

// Params returns p with the channel-level overrides applied.
func (e EnvOverrides) Params(p channel.Params) channel.Params {
	if e.ShadowSigmaDB != nil {
		p.ShadowSigmaDB = *e.ShadowSigmaDB
	}
	if e.CASCorrelation != nil {
		p.CASCorrelation = *e.CASCorrelation
	}
	if e.WallDB != nil {
		p.WallDB = *e.WallDB
	}
	if e.MaxWallDB != nil {
		p.MaxWallDB = *e.MaxWallDB
	}
	if e.RoomW != nil {
		p.RoomW = *e.RoomW
	}
	if e.RoomH != nil {
		p.RoomH = *e.RoomH
	}
	return p
}

// Topology returns cfg with the coverage override applied.
func (e EnvOverrides) Topology(cfg topology.Config) topology.Config {
	if e.CoverageRadius != nil {
		cfg.CoverageRadius = *e.CoverageRadius
	}
	return cfg
}

// PhyOpts parameterizes the PHY-layer figure drivers of
// experiments_phy.go. Antennas and Clients of 0 select the paper
// defaults: 4 antennas, and as many clients as antennas.
type PhyOpts struct {
	Topologies int
	Seed       int64
	Antennas   int
	Clients    int
	Env        EnvOverrides
	// Parallelism bounds the topology-sweep worker pool for this call;
	// <= 0 selects GOMAXPROCS. Per-call so concurrent jobs in one
	// process can run at different widths without sharing mutable state.
	Parallelism int
}

func (o PhyOpts) antennas() int {
	if o.Antennas > 0 {
		return o.Antennas
	}
	return 4
}

func (o PhyOpts) clients() int {
	if o.Clients > 0 {
		return o.Clients
	}
	return o.antennas()
}
