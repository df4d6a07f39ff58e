package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Scenario is one registered experiment: a name, the spec that
// reproduces its paper (or default) configuration, and a Run that
// evaluates one concrete spec. Run receives a validated, merged spec
// with no sweep and exactly one replicate — the engine handles
// expansion — and must derive all randomness from src, so runs are
// deterministic in (spec, seed) and safe to dispatch concurrently.
type Scenario interface {
	Name() string
	DefaultSpec() Spec
	Run(spec Spec, src *rng.Source) (Result, error)
}

// About is optionally implemented by scenarios that carry a one-line
// description (shown by midas-sim -list).
type About interface {
	About() string
}

var (
	regMu      sync.RWMutex
	registry   = map[string]Scenario{}
	regOrder   []string
	regAliases = map[string]string{}
)

// Aliaser is optionally implemented by scenarios that answer to extra
// exact names ("fig15" for "fig15-end-to-end"). An alias resolves in
// Find after exact registered names and before prefix matching, so a
// figure stem that later becomes an ambiguous prefix (when a variant
// scenario is registered next to the paper's own) keeps selecting the
// paper figure.
type Aliaser interface {
	Aliases() []string
}

// Register adds a scenario to the global registry. Registering a
// duplicate name or alias panics: names are the CLI and golden-file
// namespace.
func Register(sc Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	name := sc.Name()
	if name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	if owner, dup := regAliases[name]; dup {
		panic(fmt.Sprintf("scenario: name %q already registered as an alias of %q", name, owner))
	}
	if al, ok := sc.(Aliaser); ok {
		for _, a := range al.Aliases() {
			if a == "" {
				panic(fmt.Sprintf("scenario: %q registers an empty alias", name))
			}
			if _, dup := registry[a]; dup {
				panic(fmt.Sprintf("scenario: alias %q of %q collides with a registered name", a, name))
			}
			if owner, dup := regAliases[a]; dup {
				panic(fmt.Sprintf("scenario: alias %q of %q already aliases %q", a, name, owner))
			}
			regAliases[a] = name
		}
	}
	registry[name] = sc
	regOrder = append(regOrder, name)
}

// Names returns all registered scenario names in registration (paper)
// order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// Get returns the scenario registered under exactly name.
func Get(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// Find resolves a user-supplied name: an exact registered name first,
// then an exact alias, then a unique prefix ("fig12" resolves to
// "fig12-spatial-reuse"). Exact matches always win before prefix
// matching, so "fig15-replicated" selects itself even though it is
// also a prefix namespace, and the "fig15" alias selects the paper's
// fig15-end-to-end rather than erroring as an ambiguous prefix.
// Ambiguous or unknown names return an error listing the candidates.
func Find(name string) (Scenario, error) {
	if sc, ok := Get(name); ok {
		return sc, nil
	}
	regMu.RLock()
	canonical, isAlias := regAliases[name]
	regMu.RUnlock()
	if isAlias {
		sc, _ := Get(canonical)
		return sc, nil
	}
	var matches []string
	for _, n := range Names() {
		if strings.HasPrefix(n, name) {
			matches = append(matches, n)
		}
	}
	switch len(matches) {
	case 1:
		sc, _ := Get(matches[0])
		return sc, nil
	case 0:
		return nil, fmt.Errorf("scenario: unknown scenario %q (midas-sim -list shows all %d)", name, len(Names()))
	default:
		sort.Strings(matches)
		return nil, fmt.Errorf("scenario: ambiguous scenario %q: matches %s", name, strings.Join(matches, ", "))
	}
}

// Ignorer is optionally implemented by scenarios that do not use some
// spec knobs; Resolve rejects overrides that set an ignored knob, so a
// user can never believe they measured a configuration the experiment
// silently dropped.
type Ignorer interface {
	IgnoredKnobs() []string
}

// scenarioFunc is the concrete Scenario every registration uses: a
// per-topology function and a fold. Run computes the records of
// topologies 0 … spec.Topologies-1 on the runner pool and folds them,
// in topology order, into the Result — the one loop over topologies
// in the module.
type scenarioFunc[R any] struct {
	name     string
	about    string
	defaults Spec
	// aliases lists extra exact names this scenario answers to in Find
	// (resolved before prefix matching).
	aliases []string
	// ignores lists the spec knobs this experiment does not consume
	// (Knob* constants). Overriding one is a Resolve error.
	ignores []string
	// topology computes topology t's record. It derives all its
	// randomness from root by Split/SplitN (root is shared by every
	// task, so drawing from it would race). Its options carry neither
	// the seed nor the topology count, so the records of a run are a
	// prefix of those of any run over more topologies.
	topology func(o sim.Opts, t int, root *rng.Source) (R, error)
	// fold turns the records, in topology order, into the result.
	fold func(recs []R, r *Result)
}

func (s *scenarioFunc[R]) Name() string           { return s.name }
func (s *scenarioFunc[R]) About() string          { return s.about }
func (s *scenarioFunc[R]) DefaultSpec() Spec      { return s.defaults.clone() }
func (s *scenarioFunc[R]) Aliases() []string      { return s.aliases }
func (s *scenarioFunc[R]) IgnoredKnobs() []string { return s.ignores }

// Run folds the spec's topology records into a result. The engine's
// source is not needed: runner.SweepRoot derives the same root from
// spec.Seed.
func (s *scenarioFunc[R]) Run(spec Spec, _ *rng.Source) (Result, error) {
	recs, err := s.records(spec)
	if err != nil {
		return Result{}, err
	}
	r := Result{Scenario: s.name}
	s.fold(recs, &r)
	return r, nil
}

// records runs the per-topology function over the spec's topologies at
// the spec's parallelism and returns the records in topology order, or
// the lowest-index failure.
func (s *scenarioFunc[R]) records(spec Spec) ([]R, error) {
	o := spec.simOpts()
	return runner.SweepRoot(context.Background(), spec.Topologies, spec.Seed, runner.Options{Parallelism: spec.Parallelism},
		func(_ context.Context, t int, root *rng.Source) (R, error) {
			return s.topology(o, t, root)
		})
}
