// Command midas-topo generates and inspects deployments: prints antenna
// and client placements, validates the paper's placement rules and
// renders an ASCII map.
//
// Usage:
//
//	midas-topo [-aps 1|3|8] [-mode das|cas] [-seed S] [-map]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

var (
	nAPs    = flag.Int("aps", 1, "number of APs: 1, 3 or 8")
	mode    = flag.String("mode", "das", "das or cas")
	seed    = flag.Int64("seed", 1, "random seed")
	drawMap = flag.Bool("map", false, "render an ASCII deployment map")
)

func main() {
	flag.Parse()
	var tmode topology.Mode
	switch *mode {
	case "das":
		tmode = topology.DAS
	case "cas":
		tmode = topology.CAS
	default:
		fmt.Fprintf(os.Stderr, "midas-topo: unknown -mode %q (want das|cas)\n", *mode)
		os.Exit(2)
	}
	dep, err := build(tmode)
	if err != nil {
		fatal(err)
	}
	if err := dep.Validate(); err != nil {
		fatal(fmt.Errorf("generated deployment failed validation: %w", err))
	}
	fmt.Printf("mode=%v APs=%d antennas=%d clients=%d\n",
		dep.Mode, dep.NumAPs(), len(dep.Antennas), len(dep.Clients))
	for ap, pos := range dep.APs {
		fmt.Printf("AP%d at %v\n", ap, pos)
		for _, k := range dep.AntennasOf(ap) {
			a := dep.Antennas[k]
			fmt.Printf("  antenna %d at %v (%.1f m from AP)\n", a.Local, a.Pos, a.Pos.Dist(pos))
		}
		for _, j := range dep.ClientsOf(ap) {
			fmt.Printf("  client %d at %v (%.1f m from AP)\n", j, dep.Clients[j], dep.Clients[j].Dist(pos))
		}
	}
	if *drawMap {
		render(dep)
	}
}

func build(tmode topology.Mode) (*topology.Deployment, error) {
	cfg := topology.DefaultConfig(tmode)
	switch *nAPs {
	case 1:
		return topology.SingleAP(cfg, rng.New(*seed)), nil
	case 3:
		return topology.ThreeAPTestbed(cfg, rng.New(*seed)), nil
	case 8:
		return topology.LargeScale(topology.DefaultLargeScale(tmode), rng.New(*seed))
	default:
		return nil, fmt.Errorf("midas-topo: unsupported AP count %d", *nAPs)
	}
}

// render draws APs (A), antennas (t) and clients (c) on a character grid.
func render(dep *topology.Deployment) {
	minX, minY := 1e18, 1e18
	maxX, maxY := -1e18, -1e18
	expand := func(p geom.Point) {
		minX, minY = min(minX, p.X), min(minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
	}
	for _, p := range dep.APs {
		expand(p)
	}
	for _, a := range dep.Antennas {
		expand(a.Pos)
	}
	for _, c := range dep.Clients {
		expand(c)
	}
	const cols, rows = 72, 28
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", cols))
	}
	put := func(p geom.Point, ch byte) {
		cx := int((p.X - minX) / (maxX - minX + 1e-9) * (cols - 1))
		cy := int((p.Y - minY) / (maxY - minY + 1e-9) * (rows - 1))
		grid[rows-1-cy][cx] = ch
	}
	for _, c := range dep.Clients {
		put(c, 'c')
	}
	for _, a := range dep.Antennas {
		put(a.Pos, 't')
	}
	for _, p := range dep.APs {
		put(p, 'A')
	}
	fmt.Printf("map %.0f×%.0f m (A=AP, t=antenna, c=client):\n", maxX-minX, maxY-minY)
	for _, row := range grid {
		fmt.Println(string(row))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
