package sim

import (
	"time"

	"repro/internal/channel"
	"repro/internal/topology"
)

// This file defines the options through which declarative scenario
// specs (internal/scenario) parameterize the per-topology experiment
// functions. Every field is optional; the zero value of each struct is
// a strict no-op, so functions called with zero options reproduce the
// paper experiments bit-for-bit.

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

// Opts parameterizes every per-topology experiment function. Each
// field is optional; the zero value reproduces the paper configuration.
type Opts struct {
	// Antennas and Clients size each AP when > 0. The PHY figures
	// default to 4 antennas and as many clients as antennas; the
	// end-to-end figures to the topology's own defaults.
	Antennas int
	Clients  int
	// Env adjusts the channel parameters and coverage radius.
	Env EnvOverrides
	// SimTime is the simulated airtime of each end-to-end network run.
	SimTime time.Duration
	// VenueWidth/VenueHeight override the large-scale deployment region
	// (paper: 52×52 m) when both > 0; VenueAPs overrides its AP count
	// (paper: 8) when > 0. Only the large-scale experiments read these.
	VenueWidth, VenueHeight float64
	VenueAPs                int
}

func (o Opts) antennas() int {
	if o.Antennas > 0 {
		return o.Antennas
	}
	return 4
}

func (o Opts) clients() int {
	if o.Clients > 0 {
		return o.Clients
	}
	return o.antennas()
}
