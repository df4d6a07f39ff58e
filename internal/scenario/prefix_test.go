package scenario

import (
	"math"
	"reflect"
	"testing"
)

// anyRecords exposes a scenario's per-topology records ([]R) to the
// prefix test, whatever its record type.
func (s *scenarioFunc[R]) anyRecords(spec Spec) (any, error) { return s.records(spec) }

// TestTopologyRecordsArePrefixes pins the property a topology-granular
// shard rests on: for every registered scenario and every point of its
// default sweep, the records of a run over n topologies equal, bit for
// bit, the first n records of a run over more topologies. So no
// per-topology function reads the topology count, and a topology's
// record depends on neither the run's size nor its parallelism (the
// short run goes at parallelism 1, the long one at 8).
func TestTopologyRecordsArePrefixes(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			rs, ok := sc.(interface{ anyRecords(Spec) (any, error) })
			if !ok {
				t.Fatalf("%s has no per-topology records", name)
			}
			spec, err := Resolve(sc, goldenOverrides(name))
			if err != nil {
				t.Fatal(err)
			}
			n := spec.Topologies
			for _, point := range spec.expand() {
				short, long := point.Spec, point.Spec
				short.Parallelism, long.Parallelism = 1, 8
				long.Topologies = n + 2
				a, err := rs.anyRecords(short)
				if err != nil {
					t.Fatal(err)
				}
				b, err := rs.anyRecords(long)
				if err != nil {
					t.Fatal(err)
				}
				av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
				if av.Len() != n || bv.Len() != n+2 {
					t.Fatalf("%s: %d and %d records, want %d and %d", point.Label, av.Len(), bv.Len(), n, n+2)
				}
				for i := 0; i < n; i++ {
					if !bitsEqual(t, av.Index(i), bv.Index(i)) {
						t.Errorf("%s: topology %d's record differs: %v at %d topologies, %v at %d",
							point.Label, i, av.Index(i), n, bv.Index(i), n+2)
					}
				}
			}
		})
	}
}

// bitsEqual compares two records field by field, floats by their bits
// (so NaN equals NaN and 0 differs from -0).
func bitsEqual(t *testing.T, a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(t, a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(t, a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	t.Fatalf("record field of kind %v has no comparison", a.Kind())
	return false
}
