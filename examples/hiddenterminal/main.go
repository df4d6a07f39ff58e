// Hiddenterminal: the §5.3.3–5.3.4 coverage studies — deadzone maps and
// hidden-terminal spot counting for co-located versus distributed
// antennas, resolved from the scenario registry and driven by a spec
// file. The deadzone scenario's text block carries the ASCII coverage
// maps ('#' = deadspot).
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
	specPath := flag.String("spec", "examples/hiddenterminal/spec.json", "scenario spec file")
	flag.Parse()
	spec, err := scenario.LoadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}

	sink := &runner.TextSink{W: os.Stdout}
	if err := sink.Begin(runner.Meta{Tool: "example-hiddenterminal", Seed: spec.Seed}); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"fig13-deadzones", "ht-hidden-terminals"} {
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
