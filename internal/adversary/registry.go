package adversary

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"repro/internal/seedmix"
	"repro/internal/sim"
)

// This file is the catalog of fault kinds: a closed table of named,
// multi-parameter, composable behaviors, shaped like the link-fault kinds.
// A fault is selected declaratively as a Spec — kind name, params map,
// plus an optional list of composed mutator layers — and materialized into
// a sim.Handler wrapper by BuildHandler. Unknown names and unknown params
// are rejected eagerly, never defaulted silently.

// Params carries a fault kind's named numeric knobs.
type Params map[string]float64

// kind is one fault kind: a doc line, its params' defaults, an optional
// range check on the filled params, and exactly one of wrap — which
// replaces or encloses the vertex's machine (silent, crash) — and
// mutators, which rewrite its outgoing traffic and therefore compose onto
// one another and onto a wrapper. discardsInner marks a wrapper that never
// invokes the machine (silent): mutators composed under it would be dead
// configuration, so resolve rejects them.
type kind struct {
	doc           string
	defaults      Params
	check         func(Params) error
	wrap          func(id int, inner sim.Handler, p Params) sim.Handler
	discardsInner bool
	mutators      func(p Params) []Mutator
}

// kinds is the catalog.
var kinds = map[string]kind{
	"silent": {
		doc:           "never sends a message (crashed from the start)",
		discardsInner: true,
		wrap:          func(id int, _ sim.Handler, _ Params) sim.Handler { return &Silent{NodeID: id} },
	},
	"crash": {
		doc:      "behaves honestly, then crashes after `after` deliveries with at most `finalSends` escaping sends",
		defaults: Params{"after": 20, "finalSends": 1},
		check:    nonNegParam("finalSends"),
		wrap: func(_ int, inner sim.Handler, p Params) sim.Handler {
			return &Crash{Inner: inner, AfterDeliveries: int(p["after"]), FinalSends: int(p["finalSends"])}
		},
	},
	"extreme": {
		doc:      "floods the extreme value `value` instead of its input",
		defaults: Params{"value": 1e9},
		mutators: func(p Params) []Mutator {
			return []Mutator{rewrite(true, func(*rand.Rand, int, float64) float64 { return p["value"] })}
		},
	},
	"equivocate": {
		doc:      "reports input + step*(neighbor+1) per out-neighbor",
		defaults: Params{"step": 0.5},
		mutators: func(p Params) []Mutator { return []Mutator{equivocate(p["step"], 0), flipVotes} },
	},
	"tamper": {
		doc:      "negates and shifts every relayed value and corrupts relayed COMPLETE sets by `delta`",
		defaults: Params{"delta": 100},
		mutators: func(p Params) []Mutator {
			delta := p["delta"]
			return []Mutator{
				rewrite(false, func(_ *rand.Rand, _ int, x float64) float64 { return -x - delta }),
				shiftCompletes(func(*rand.Rand) float64 { return delta }),
			}
		},
	},
	"noise": {
		doc:      "perturbs every outgoing value by uniform noise in [-amp, amp]",
		defaults: Params{"amp": 10},
		check:    nonNegParam("amp"),
		mutators: func(p Params) []Mutator {
			by := func(rng *rand.Rand) float64 { return p["amp"] * (2*rng.Float64() - 1) }
			add := func(rng *rand.Rand, _ int, x float64) float64 { return x + by(rng) }
			return []Mutator{rewrite(true, add), rewrite(false, add), shiftCompletes(by)}
		},
	},
	"delayedequiv": {
		doc:      "honest for the first `after` originations, then equivocates by `step` per neighbor — defeats detectors that only audit early rounds",
		defaults: Params{"step": 0.5, "after": 6},
		check:    nonNegParam("after"),
		mutators: func(p Params) []Mutator { return []Mutator{equivocate(p["step"], int(p["after"]))} },
	},
	"split": {
		doc:      "targeted two-faced originations: out-neighbors with id <= `pivot` receive `lo`, the rest `hi`",
		defaults: Params{"lo": -1e6, "hi": 1e6, "pivot": 0},
		mutators: func(p Params) []Mutator {
			return []Mutator{rewrite(true, func(_ *rand.Rand, to int, _ float64) float64 {
				if to <= int(p["pivot"]) {
					return p["lo"]
				}
				return p["hi"]
			})}
		},
	},
	"replay": {
		doc:      "with probability `prob`, re-sends a previously sent payload alongside each outgoing message",
		defaults: Params{"prob": 0.3},
		check:    probParam("prob"),
		mutators: func(p Params) []Mutator { return []Mutator{Replay(p["prob"])} },
	},
}

// forgedParams are the values a faulty vertex puts on the wire in place of
// honest ones (an input, an offset, a step): NaN and ±Inf there are
// attacks the machines must survive (DESIGN fidelity note 12), not bad
// knobs, so fill lets them through. Every other param must be finite.
var forgedParams = map[string]bool{"value": true, "delta": true, "step": true, "lo": true, "hi": true}

// wholeParams are read as counts or a vertex id: a fraction would be saved
// as written and run truncated, so fill refuses it.
var wholeParams = map[string]bool{"after": true, "finalSends": true, "pivot": true}

// Adversaries lists the fault kind names, sorted.
func Adversaries() []string { return slices.Sorted(maps.Keys(kinds)) }

// MutatorKinds lists the fault kinds that can appear in a compose list,
// sorted.
func MutatorKinds() []string {
	var names []string
	for _, name := range Adversaries() {
		if kinds[name].mutators != nil {
			names = append(names, name)
		}
	}
	return names
}

// Defaults returns the kind's accepted params with their default values;
// params outside this set are rejected.
func Defaults(name string) (Params, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return maps.Clone(k.defaults), nil
}

// Doc returns a one-line description of the kind for catalogs ("" for an
// unknown kind).
func Doc(name string) string { return kinds[name].doc }

func lookup(name string) (kind, error) {
	k, ok := kinds[name]
	if !ok {
		return kind{}, fmt.Errorf("adversary: unknown fault kind %q (valid values are: %v)", name, Adversaries())
	}
	return k, nil
}

// probParam constrains a parameter to [0, 1] — the same eager rejection
// the link-fault rules apply to their prob knobs. The comparisons are
// written so that NaN, which compares false with everything, fails them.
func probParam(name string) func(Params) error {
	return func(p Params) error {
		if x := p[name]; !(0 <= x && x <= 1) {
			return fmt.Errorf("param %q: %g outside [0, 1]", name, x)
		}
		return nil
	}
}

// nonNegParam constrains a parameter to be non-negative (and not NaN).
func nonNegParam(name string) func(Params) error {
	return func(p Params) error {
		if x := p[name]; !(x >= 0) {
			return fmt.Errorf("param %q: %g must be non-negative", name, x)
		}
		return nil
	}
}

// Layer is one composed mutator kind: a name plus its params.
type Layer struct {
	Kind   string
	Params Params
}

// Spec is a resolved fault configuration: the base kind, its params, and
// the mutator layers composed on top of it. When the base is itself a
// mutator kind, base and composed mutators share one Mutant wrapper (base
// mutators run first); when the base is a wrapper (crash), the composed
// Mutant sits inside the wrapper — a crash-after-N node that misbehaves
// until it dies.
type Spec struct {
	Kind    string
	Params  Params
	Compose []Layer
}

// resolve is the single source of truth for spec validation: it resolves
// the base kind and every composed layer, fills and checks params, and
// rejects compositions the base cannot carry. It returns the base kind,
// its params, and the mutators to apply: the base's own (a mutator kind's)
// first, then each layer's. Both Validate (decode time) and BuildHandler
// (construction time) go through it, so the two paths cannot diverge.
func resolve(s Spec) (base kind, params Params, muts []Mutator, err error) {
	if base, err = lookup(s.Kind); err != nil {
		return kind{}, nil, nil, err
	}
	if params, err = fill(s.Kind, base, s.Params); err != nil {
		return kind{}, nil, nil, err
	}
	if base.discardsInner && len(s.Compose) > 0 {
		return kind{}, nil, nil, fmt.Errorf("adversary: strategy %q never invokes the wrapped machine and cannot carry composed mutators", s.Kind)
	}
	if base.mutators != nil {
		muts = base.mutators(params)
	}
	for i, l := range s.Compose {
		lk, err := lookup(l.Kind)
		if err != nil {
			return kind{}, nil, nil, fmt.Errorf("compose[%d]: %w", i, err)
		}
		if lk.mutators == nil {
			return kind{}, nil, nil, fmt.Errorf("adversary: compose[%d]: strategy %q is not a mutator strategy and cannot compose (composable: %v)", i, l.Kind, MutatorKinds())
		}
		lp, err := fill(l.Kind, lk, l.Params)
		if err != nil {
			return kind{}, nil, nil, fmt.Errorf("compose[%d]: %w", i, err)
		}
		muts = append(muts, lk.mutators(lp)...)
	}
	return base, params, muts, nil
}

// Validate checks the spec eagerly: the kind and every composed layer must
// be in the catalog, every param name accepted and every value in range,
// composed layers must be mutator kinds, and the base must actually carry
// them.
func (s Spec) Validate() error {
	_, _, _, err := resolve(s)
	return err
}

// fill merges p over the kind's defaults, rejecting unknown names and
// out-of-range values: the kind's own check first, then a non-finite value
// outside forgedParams and a fraction (or a magnitude past 2^53, where
// float64 stops counting in ones) in wholeParams. Every value that
// validates is one a scenario file spells and runs as written.
func fill(name string, k kind, p Params) (Params, error) {
	full := maps.Clone(k.defaults)
	if full == nil {
		full = Params{}
	}
	for key, v := range p {
		if _, ok := k.defaults[key]; !ok {
			return nil, fmt.Errorf("adversary: strategy %q: unknown param %q (valid params are: %v)", name, key, slices.Sorted(maps.Keys(k.defaults)))
		}
		full[key] = v
	}
	if k.check != nil {
		if err := k.check(full); err != nil {
			return nil, fmt.Errorf("adversary: strategy %q: %w", name, err)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(full)) {
		x := full[key]
		if !forgedParams[key] && (math.IsNaN(x) || math.IsInf(x, 0)) {
			return nil, fmt.Errorf("adversary: strategy %q: param %q: %g is not finite", name, key, x)
		}
		if wholeParams[key] && (x != math.Trunc(x) || math.Abs(x) > 1<<53) {
			return nil, fmt.Errorf("adversary: strategy %q: param %q: %g is not a whole number of magnitude at most 2^53", name, key, x)
		}
	}
	return full, nil
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
// resolve), so an unknown kind, unknown param or uncarryable composition
// is a hard error on every construction path — no silent fallback to the
// honest handler. seed should already be the vertex's decorrelated stream
// seed (NodeSeed).
func BuildHandler(id int, s Spec, inner sim.Handler, seed int64) (sim.Handler, error) {
	base, params, muts, err := resolve(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if base.wrap == nil {
		return &Mutant{Inner: inner, Mutators: muts, Rng: rng}, nil
	}
	if len(muts) > 0 {
		inner = &Mutant{Inner: inner, Mutators: muts, Rng: rng}
	}
	return base.wrap(id, inner, params), nil
}
