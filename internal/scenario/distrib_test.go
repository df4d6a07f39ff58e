package scenario

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/rng"
)

// TestShardsAssembleMatchesRunResolved pins the distribution contract:
// executing a resolved spec's Shards() one by one — in any process, at
// any parallelism, in any completion order — and feeding the ordered
// results to Assemble yields byte-identical output to the
// single-process RunResolved of the same spec. internal/dispatch is
// built on exactly this property. fig12-spatial-reuse covers the sweep
// and replicate layouts; every registered scenario then runs at golden
// scale with 2 replicates, its shards executed in a shuffled order.
func TestShardsAssembleMatchesRunResolved(t *testing.T) {
	type shardCase struct {
		name      string
		scenario  string
		overrides Spec
	}
	cases := []shardCase{
		{"unswept", "fig12-spatial-reuse", Spec{Topologies: 3, Seed: 11}},
		{"swept", "fig12-spatial-reuse", Spec{Topologies: 2, Seed: 11, Sweep: map[string][]float64{"seed": {21, 22, 23}}}},
		{"replicated", "fig12-spatial-reuse", Spec{Topologies: 2, Seed: 11, Replicates: 3}},
		{"swept-replicated", "fig12-spatial-reuse", Spec{Topologies: 2, Seed: 11, Replicates: 2,
			Sweep: map[string][]float64{"seed": {31, 32}}}},
		{"single-labelled-point", "fig12-spatial-reuse", Spec{Topologies: 2, Seed: 11, Sweep: map[string][]float64{"seed": {41}}}},
	}
	for _, name := range Names() {
		o := goldenOverrides(name)
		o.Replicates = 2
		cases = append(cases, shardCase{"golden-replicated/" + name, name, o})
	}
	shuffle := rand.New(rand.NewSource(17))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Find(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Resolve(sc, tc.overrides)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunResolved(context.Background(), sc, spec, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}

			shards := spec.Shards()
			if want := spec.ExpandedRuns(); len(shards) != want {
				t.Fatalf("Shards() returned %d shards, ExpandedRuns says %d", len(shards), want)
			}
			results := make([]Result, len(shards))
			for _, i := range shuffle.Perm(len(shards)) {
				sh := shards[i]
				if sh.Sweep != nil {
					t.Fatalf("shard %d still carries a sweep", i)
				}
				// A remote worker runs the shard with its own parallelism;
				// results must not depend on it.
				sh.Parallelism = 1
				res, err := sc.Run(sh, rng.New(sh.Seed))
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				results[i] = res
			}
			got, err := Assemble(sc.Name(), spec, results)
			if err != nil {
				t.Fatal(err)
			}

			wantJSON, err := want.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := got.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("assembled shard results differ from RunResolved:\nwant: %s\ngot:  %s", wantJSON, gotJSON)
			}
		})
	}
}

// TestShardHashesAddressSharedSweepPoints pins the properties the
// dispatch layer's shard-level store caching rests on: shard addresses
// are pairwise distinct within a job, identical across jobs at shared
// sweep points, independent of the job's parallelism, and — for a
// single sweep point — identical to the address of submitting that
// point directly as its own spec.
func TestShardHashesAddressSharedSweepPoints(t *testing.T) {
	sc, err := Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(o Spec) Spec {
		t.Helper()
		spec, err := Resolve(sc, o)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	a := resolve(Spec{Topologies: 2, Seed: 9, Replicates: 2, Sweep: map[string][]float64{"seed": {51, 52}}})
	hashesA := a.ShardHashes()
	if want := a.ExpandedRuns(); len(hashesA) != want {
		t.Fatalf("ShardHashes returned %d hashes, ExpandedRuns says %d", len(hashesA), want)
	}
	seen := map[string]bool{}
	for i, h := range hashesA {
		if seen[h] {
			t.Fatalf("shard %d repeats address %s", i, h)
		}
		seen[h] = true
	}

	// A job at another parallelism addresses the same shards.
	wide := a
	wide.Parallelism = 7
	for i, h := range wide.ShardHashes() {
		if h != hashesA[i] {
			t.Fatalf("parallelism changed shard %d address: %s vs %s", i, h, hashesA[i])
		}
	}

	// A different sweep sharing the seed-52 point shares exactly that
	// point's replicate shards (shard order: sweep values in listed
	// order, replicates innermost).
	b := resolve(Spec{Topologies: 2, Seed: 9, Replicates: 2, Sweep: map[string][]float64{"seed": {52, 53}}})
	hashesB := b.ShardHashes()
	if hashesB[0] != hashesA[2] || hashesB[1] != hashesA[3] {
		t.Fatalf("shared sweep point not shared: B[0:2]=%v, A[2:4]=%v", hashesB[:2], hashesA[2:4])
	}
	if seen[hashesB[2]] || seen[hashesB[3]] {
		t.Fatal("unshared sweep point collided with job A's shards")
	}

	// A single-run spec is its own one shard: publishing that shard is
	// publishing the job-level result.
	single := resolve(Spec{Topologies: 2, Seed: 9})
	if hs := single.ShardHashes(); len(hs) != 1 || hs[0] != single.CanonicalHash() {
		t.Fatalf("single-run spec shard hashes %v, want exactly its own hash %s", hs, single.CanonicalHash())
	}

	// And the sweep point submitted directly addresses the same result
	// as the swept job's replicate-0 shard for that point.
	direct := resolve(Spec{Topologies: 2, Seed: 51})
	shardSpecs := a.Shards()
	if shardSpecs[0].Seed != direct.Seed {
		t.Fatalf("shard 0 seed %d, direct spec seed %d", shardSpecs[0].Seed, direct.Seed)
	}
	if hashesA[0] != direct.CanonicalHash() {
		t.Fatalf("replicate-0 shard address %s differs from the direct spec's %s", hashesA[0], direct.CanonicalHash())
	}
}

// TestAssembleRejectsWrongShardCount: a distributed run that lost (or
// duplicated) a shard must fail loudly, never assemble a partial
// result.
func TestAssembleRejectsWrongShardCount(t *testing.T) {
	sc, err := Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Resolve(sc, Spec{Topologies: 2, Seed: 5, Replicates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(sc.Name(), spec, make([]Result, 1)); err == nil {
		t.Fatal("Assemble accepted 1 result for a 2-shard spec")
	}
}
