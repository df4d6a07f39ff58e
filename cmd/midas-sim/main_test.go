package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestApplySet pins -set, midas-sim's only override surface: every
// key spells one spec field, count keys and the seed refuse the 0 that
// the spec reads as "inherit", and a comma-separated value declares a
// sweep instead of setting the field.
func TestApplySet(t *testing.T) {
	five := 5.0
	for _, tc := range []struct {
		name    string
		kvs     []string
		want    scenario.Spec
		wantErr []string // substrings of the error; nil = must succeed
	}{
		{name: "size sets clients and antennas", kvs: []string{"size=3"},
			want: scenario.Spec{Clients: 3, Antennas: 3}},
		{name: "comma value declares a sweep", kvs: []string{"clients=2,4, 8"},
			want: scenario.Spec{Sweep: map[string][]float64{"clients": {2, 4, 8}}}},
		{name: "sweep keeps scalar overrides", kvs: []string{"topologies=4", "seed=3,4"},
			want: scenario.Spec{Topologies: 4, Sweep: map[string][]float64{"seed": {3, 4}}}},
		{name: "scalar fields", kvs: []string{"seed=7", "simtime=40ms", "replicates=3", "parallelism=0", "aps=2", "sigma_db=5"},
			want: scenario.Spec{Seed: 7, SimTime: scenario.Duration(40 * time.Millisecond), Replicates: 3,
				Venue: &scenario.Venue{APs: 2}, Shadowing: &scenario.Shadowing{SigmaDB: &five}}},
		{name: "seed=0 refused", kvs: []string{"seed=0"}, wantErr: []string{"seed=0", "inherit"}},
		{name: "clients=0 refused", kvs: []string{"clients=0"}, wantErr: []string{"clients", ">= 1"}},
		{name: "size=0 refused", kvs: []string{"size=0"}, wantErr: []string{"size", ">= 1"}},
		{name: "unknown key lists the valid keys", kvs: []string{"bogus=1"},
			wantErr: []string{`unknown -set key "bogus"`, "antennas, aps,", "seed", "size", "topologies"}},
		{name: "removed alias topos", kvs: []string{"topos=4"}, wantErr: []string{`unknown -set key "topos"`}},
		{name: "removed alias runs", kvs: []string{"runs=2"}, wantErr: []string{`unknown -set key "runs"`}},
		{name: "removed alias parallel", kvs: []string{"parallel=2"}, wantErr: []string{`unknown -set key "parallel"`}},
		{name: "missing value", kvs: []string{"clients="}, wantErr: []string{"want key=value"}},
		{name: "bad sweep value", kvs: []string{"clients=2,x"}, wantErr: []string{"bad -set sweep value"}},
		{name: "bad duration", kvs: []string{"simtime=40"}, wantErr: []string{"duration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got scenario.Spec
			var err error
			for _, kv := range tc.kvs {
				if err = applySet(&got, kv); err != nil {
					break
				}
			}
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("applySet(%q) = nil error, want one mentioning %q", tc.kvs, tc.wantErr)
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q does not mention %q", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("applySet(%q): %v", tc.kvs, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("applySet(%q) = %+v, want %+v", tc.kvs, got, tc.want)
			}
		})
	}
}
