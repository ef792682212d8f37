package adversary

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/seedmix"
	"repro/internal/sim"
)

// This file is the adversary registry: named, multi-parameter, composable
// fault strategies, mirroring the protocol and policy registries. A fault
// is selected declaratively as a Spec — strategy name, params map, plus an
// optional list of composed mutator layers — and materialized into a
// sim.Handler wrapper by BuildHandler. Unknown names and unknown params are
// rejected eagerly, never defaulted silently.

// Params carries a strategy's named numeric knobs.
type Params map[string]float64

// Strategy is one registered adversary behavior. Implementations are
// stateless descriptors: all per-run state lives in the handlers Build
// returns.
type Strategy interface {
	// Name is the serialized strategy name ("silent", "crash", ...).
	Name() string
	// Doc is a one-line description for catalogs.
	Doc() string
	// Defaults lists the accepted parameter names with their default
	// values; params outside this set are rejected.
	Defaults() Params
	// Build wraps the vertex's machine with the behavior. b.Params is
	// complete (defaults filled) and validated.
	Build(b Build) (sim.Handler, error)
}

// MutatorStrategy is a Strategy whose behavior is expressed as outgoing
// message mutators. Only mutator strategies compose: their mutators can be
// layered onto one another (and onto wrapper strategies such as crash).
type MutatorStrategy interface {
	Strategy
	// Mutators returns the strategy's mutator chain for one faulty vertex.
	Mutators(id int, p Params, rng *rand.Rand) []Mutator
}

// Build is the context a Strategy materializes a handler from.
type Build struct {
	// ID is the faulty vertex.
	ID int
	// Inner is the vertex's honest machine (already wrapped in a Mutant
	// when the spec composes mutator layers under a wrapper strategy).
	Inner sim.Handler
	// Params is the complete, validated parameter set.
	Params Params
	// Rng is the vertex's decorrelated random stream (see NodeSeed).
	Rng *rand.Rand
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Strategy{}
)

// Register adds a strategy under its unique, non-empty name.
// Re-registration panics: two packages claiming one name is a programming
// error, not a runtime condition. The built-ins ("silent", "crash",
// "extreme", "equivocate", "tamper", "noise", "delayedequiv", "split",
// "replay") are pre-registered.
func Register(s Strategy) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if s == nil || s.Name() == "" {
		panic("adversary: Register with nil strategy or empty name")
	}
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("adversary: strategy %q registered twice", s.Name()))
	}
	registry[s.Name()] = s
}

// Adversaries lists the registered strategy names, sorted.
func Adversaries() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ByName resolves a registered strategy.
func ByName(name string) (Strategy, error) {
	registryMu.RLock()
	s := registry[name]
	registryMu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("adversary: unknown fault kind %q (valid values are: %v)", name, Adversaries())
	}
	return s, nil
}

// Layer is one composed mutator strategy: a name plus its params.
type Layer struct {
	Kind   string
	Params Params
}

// Spec is a resolved fault configuration: the base strategy, its params,
// and the mutator layers composed on top of it. When the base is itself a
// mutator strategy, base and composed mutators share one Mutant wrapper
// (base mutators run first); when the base is a wrapper strategy (crash),
// the composed Mutant sits inside the wrapper — a crash-after-N node that
// misbehaves until it dies.
type Spec struct {
	Kind    string
	Params  Params
	Compose []Layer
}

// InnerDiscarder is implemented by wrapper strategies that never invoke
// the wrapped machine (silent): composing mutators under them would be
// silently dead configuration, so resolve rejects it eagerly.
type InnerDiscarder interface {
	DiscardsInner() bool
}

// resolvedLayer is one composed layer with its strategy resolved and its
// params completed.
type resolvedLayer struct {
	strategy MutatorStrategy
	params   Params
}

// resolve is the single source of truth for spec validation: it resolves
// the base strategy and every composed layer, fills and checks params, and
// rejects compositions the base cannot carry. Both Validate (decode time)
// and BuildHandler (construction time) go through it, so the two paths
// cannot diverge.
func resolve(s Spec) (base Strategy, baseParams Params, layers []resolvedLayer, err error) {
	if base, err = ByName(s.Kind); err != nil {
		return nil, nil, nil, err
	}
	if baseParams, err = fillParams(base, s.Params); err != nil {
		return nil, nil, nil, err
	}
	if d, ok := base.(InnerDiscarder); ok && d.DiscardsInner() && len(s.Compose) > 0 {
		return nil, nil, nil, fmt.Errorf("adversary: strategy %q never invokes the wrapped machine and cannot carry composed mutators", s.Kind)
	}
	for i, l := range s.Compose {
		ls, err := ByName(l.Kind)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compose[%d]: %w", i, err)
		}
		ms, ok := ls.(MutatorStrategy)
		if !ok {
			return nil, nil, nil, fmt.Errorf("adversary: compose[%d]: strategy %q is not a mutator strategy and cannot compose (composable: %v)", i, l.Kind, MutatorKinds())
		}
		lp, err := fillParams(ms, l.Params)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compose[%d]: %w", i, err)
		}
		layers = append(layers, resolvedLayer{strategy: ms, params: lp})
	}
	return base, baseParams, layers, nil
}

// Validate checks the spec eagerly: the strategy and every composed layer
// must be registered, every param name accepted, composed layers must be
// mutator strategies, and the base must actually carry them.
func (s Spec) Validate() error {
	_, _, _, err := resolve(s)
	return err
}

// MutatorKinds lists the registered strategies that can appear in a
// compose list, sorted.
func MutatorKinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name, s := range registry {
		if _, ok := s.(MutatorStrategy); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// ParamChecker is optionally implemented by strategies that constrain
// their parameter ranges (probabilities in [0, 1], non-negative counts);
// CheckParams receives the complete, defaults-filled set. Violations are
// rejected eagerly at decode/construction time, like unknown names —
// never silently reinterpreted at run time.
type ParamChecker interface {
	CheckParams(p Params) error
}

// fillParams merges p over the strategy's defaults, rejecting unknown
// names and out-of-range values.
func fillParams(s Strategy, p Params) (Params, error) {
	defs := s.Defaults()
	full := make(Params, len(defs))
	for k, v := range defs {
		full[k] = v
	}
	for k, v := range p {
		if _, ok := defs[k]; !ok {
			return nil, fmt.Errorf("adversary: strategy %q: unknown param %q (valid params are: %v)", s.Name(), k, paramNames(defs))
		}
		full[k] = v
	}
	if c, ok := s.(ParamChecker); ok {
		if err := c.CheckParams(full); err != nil {
			return nil, fmt.Errorf("adversary: strategy %q: %w", s.Name(), err)
		}
	}
	return full, nil
}

func paramNames(defs Params) []string {
	names := make([]string, 0, len(defs))
	for k := range defs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// NodeSeed derives vertex id's fault-stream seed from the run seed. The
// derivation is a splitmix-style hash, not seed+id: adjacent ids must get
// decorrelated rand streams (seed+i hands neighboring Byzantine nodes
// nearly identical noise sequences).
func NodeSeed(seed int64, id int) int64 {
	return seedmix.Mix(seed, int64(id))
}

// BuildHandler materializes the spec into vertex id's handler, wrapping
// inner. It validates exactly like Spec.Validate (both run through
// resolve), so an unregistered kind, unknown param or uncarryable
// composition is a hard error on every construction path — no silent
// fallback to the honest handler. seed should already be the vertex's
// decorrelated stream seed (NodeSeed).
func BuildHandler(id int, s Spec, inner sim.Handler, seed int64) (sim.Handler, error) {
	base, baseParams, layers, err := resolve(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var composed []Mutator
	for _, l := range layers {
		composed = append(composed, l.strategy.Mutators(id, l.params, rng)...)
	}
	if ms, ok := base.(MutatorStrategy); ok {
		muts := append(ms.Mutators(id, baseParams, rng), composed...)
		return &Mutant{Inner: inner, Mutators: muts, Rng: rng}, nil
	}
	if len(composed) > 0 {
		inner = &Mutant{Inner: inner, Mutators: composed, Rng: rng}
	}
	return base.Build(Build{ID: id, Inner: inner, Params: baseParams, Rng: rng})
}
