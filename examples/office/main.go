// Office: the paper's §5.2.2 capacity experiment — MU-MIMO capacity CDFs
// for co-located versus distributed antennas in the two office
// environments (enterprise Office A, crowded lab Office B). The
// workload behind Figures 8–9 is resolved from the scenario registry
// and driven by a spec file whose sweep covers both array sizes; edit
// the JSON (or pass -spec) to change scale, seed or sweep without
// touching Go.
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
	specPath := flag.String("spec", "examples/office/spec.json", "scenario spec file")
	flag.Parse()
	spec, err := scenario.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}

	sink := &runner.TextSink{W: os.Stdout}
	if err := sink.Begin(runner.Meta{Tool: "example-office", Seed: spec.Seed}); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"fig8-office-a", "fig9-office-b"} {
		res, err := scenario.RunByName(context.Background(), name, spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := sink.Result(res.RunnerResult()); err != nil {
			log.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
}
