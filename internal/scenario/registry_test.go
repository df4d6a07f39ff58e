package scenario

import (
	"strings"
	"testing"
)

// The fig15 stem regressed into an ambiguous prefix when
// fig15-replicated was registered next to fig15-end-to-end; the alias
// mechanism restores it. Exact names and exact aliases must always win
// before prefix matching.
func TestFindExactBeatsPrefix(t *testing.T) {
	cases := []struct {
		query, want string
	}{
		{"fig15", "fig15-end-to-end"},            // alias, not an ambiguity error
		{"fig15-end-to-end", "fig15-end-to-end"}, /* exact */
		{"fig15-replicated", "fig15-replicated"}, // exact, despite sharing the stem
		{"fig15-r", "fig15-replicated"},          // unique prefix still works
		{"fig12", "fig12-spatial-reuse"},         // unique prefix unaffected
	}
	for _, c := range cases {
		sc, err := Find(c.query)
		if err != nil {
			t.Errorf("Find(%q): %v", c.query, err)
			continue
		}
		if sc.Name() != c.want {
			t.Errorf("Find(%q) = %s, want %s", c.query, sc.Name(), c.want)
		}
	}
}

func TestFindAmbiguousAndUnknown(t *testing.T) {
	if _, err := Find("fig1"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Find(fig1) should be ambiguous, got %v", err)
	}
	if _, err := Find("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("Find(no-such-scenario) should be unknown, got %v", err)
	}
}

// An alias is a full citizen of the CLI namespace: Resolve and the
// engine accept it wherever a name is accepted.
func TestRunByNameAcceptsAlias(t *testing.T) {
	sc, err := Find("fig15")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(sc, Spec{Topologies: 1}); err != nil {
		t.Fatalf("resolve via alias: %v", err)
	}
}

func TestRegisterRejectsAliasCollisions(t *testing.T) {
	mustPanic := func(name string, sc Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sc)
	}
	mustPanic("alias collides with name", &scenarioFunc[struct{}]{
		name:    "collide-name-test",
		aliases: []string{"fig12-spatial-reuse"},
	})
	mustPanic("alias collides with alias", &scenarioFunc[struct{}]{
		name:    "collide-alias-test",
		aliases: []string{"fig15"},
	})
	mustPanic("name collides with alias", &scenarioFunc[struct{}]{name: "fig15"})
	mustPanic("empty alias", &scenarioFunc[struct{}]{name: "empty-alias-test", aliases: []string{""}})
}
