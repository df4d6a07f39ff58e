// Dense: the beyond-paper dense-venue workload — 16 APs in a 104×104 m
// floor (4× the paper's area), full MAC+PHY discrete-event simulation
// of CAS versus MIDAS swept over client density, resolved from the
// scenario registry and driven by a spec file.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	specPath := flag.String("spec", "examples/dense/spec.json", "scenario spec file")
	flag.Parse()
	spec, err := scenario.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}

	// Closed-loop DES comparison, spec-driven through the registry (the
	// spec file names the dense-venue scenario and sweeps clients/AP).
	res, err := scenario.RunByName(context.Background(), spec.Scenario, spec)
	if err != nil {
		log.Fatal(err)
	}
	sink := &runner.TextSink{W: os.Stdout}
	if err := sink.Begin(runner.Meta{Tool: "example-dense", Seed: spec.Seed}); err != nil {
		log.Fatal(err)
	}
	if err := sink.Result(res.RunnerResult()); err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
}
