package scenario

import "fmt"

// This file is the decomposition seam distributed execution shares
// with the in-process engine. A resolved spec expands to an ordered
// list of shards — concrete single-run specs, the exact task list
// RunResolved dispatches through the worker pool — and Assemble folds
// the ordered per-shard results back into the one merged Result a
// single-process run returns. RunResolved itself is written on top of
// both, so a coordinator that runs Shards() anywhere (any process, any
// machine, any parallelism) and feeds their results to Assemble in
// shard order produces byte-identical output to the local run. That
// identity is what makes distributed sweep results cacheable under the
// same content address as local ones.

// Shards returns the ordered concrete runs a *resolved* spec expands
// to: the sweep cross-product × replicates, in expansion order (sweep
// keys sorted, values in listed order, replicates innermost). Each
// shard is self-contained — scenario name, derived seed, no sweep, one
// replicate — so its result is fully determined by the shard spec
// alone and it can execute in any process. Every shard keeps the
// spec's own Parallelism, the width of its inner topology sweep; the
// runner's process-wide helper budget keeps the engine's run pool and
// those nested sweeps within GOMAXPROCS, and the width never affects
// the numbers.
func (s Spec) Shards() []Spec {
	points := s.expand()
	reps := s.Replicates
	if reps < 1 {
		reps = 1
	}
	if len(points) == 1 && points[0].Label == "" && reps == 1 {
		return []Spec{points[0].Spec}
	}
	tasks := make([]Spec, 0, len(points)*reps)
	for _, p := range points {
		tasks = append(tasks, p.Spec.replicateSpecs()...)
	}
	return tasks
}

// ShardHashes returns the content address (CanonicalHash) of every
// shard of a resolved spec, in shard order — the keys a dispatch
// coordinator publishes shard results under in the durable store and
// consults before enqueueing. Because Parallelism never enters a hash
// and a shard spec is fully resolved (no sweep, one replicate, its own
// derived seed), two jobs whose sweeps share a point address the same
// shard result regardless of pool widths or which process computed it;
// a single-run spec's one shard even shares its address with the
// spec's own job-level entry.
func (s Spec) ShardHashes() []string {
	shards := s.Shards()
	hashes := make([]string, len(shards))
	for i, ts := range shards {
		hashes[i] = ts.CanonicalHash()
	}
	return hashes
}

// Assemble inverts Shards: the ordered per-shard results of a resolved
// spec fold into the exact Result a single-process RunResolved returns
// — replicate groups merged into {mean, stddev, ci95, n} summaries and
// pooled quantiles, multiple sweep points merged with their "[label]"
// prefixes in expansion order. results must be in shard order and
// complete; a distributed run that lost a shard has nothing valid to
// assemble.
func Assemble(scName string, spec Spec, results []Result) (Result, error) {
	points := spec.expand()
	reps := spec.Replicates
	if reps < 1 {
		reps = 1
	}
	if len(results) != len(points)*reps {
		return Result{}, fmt.Errorf("scenario: assemble needs %d shard results (%d points × %d replicates), got %d",
			len(points)*reps, len(points), reps, len(results))
	}
	if len(points) == 1 && points[0].Label == "" && reps == 1 {
		return results[0], nil
	}

	// Fold each point's replicate group; results are in shard order, so
	// group pi occupies results[pi*reps : (pi+1)*reps].
	folded := make([]Result, len(points))
	for pi := range points {
		if reps == 1 {
			folded[pi] = results[pi]
		} else {
			folded[pi] = aggregateReplicates(scName, results[pi*reps:(pi+1)*reps])
		}
	}
	if len(points) == 1 && points[0].Label == "" {
		return folded[0], nil
	}

	merged := Result{Scenario: scName}
	for i, res := range folded {
		prefix := "[" + points[i].Label + "] "
		for _, s := range res.Series {
			s.Label = prefix + s.Label
			merged.Series = append(merged.Series, s)
		}
		for _, m := range res.Metrics {
			m.Name = prefix + m.Name
			merged.Metrics = append(merged.Metrics, m)
		}
		for _, s := range res.Summaries {
			s.Name = prefix + s.Name
			merged.Summaries = append(merged.Summaries, s)
		}
		for _, line := range res.Text {
			merged.Text = append(merged.Text, prefix+line)
		}
	}
	return merged, nil
}
