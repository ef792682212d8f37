package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// The built-in strategies. Two concrete shapes: wrapperStrategy replaces or
// encloses the vertex's machine (silent, crash); mutatorStrategy rewrites
// its outgoing traffic and therefore composes (everything else).

// wrapperStrategy is a Strategy built from functions. discardsInner marks
// wrappers that never invoke the wrapped machine (silent), which resolve
// uses to reject dead compose lists eagerly.
type wrapperStrategy struct {
	name          string
	doc           string
	defaults      Params
	discardsInner bool
	check         func(p Params) error
	build         func(b Build) (sim.Handler, error)
}

func (s wrapperStrategy) Name() string                       { return s.name }
func (s wrapperStrategy) Doc() string                        { return s.doc }
func (s wrapperStrategy) Defaults() Params                   { return cloneParams(s.defaults) }
func (s wrapperStrategy) DiscardsInner() bool                { return s.discardsInner }
func (s wrapperStrategy) Build(b Build) (sim.Handler, error) { return s.build(b) }
func (s wrapperStrategy) CheckParams(p Params) error {
	if s.check == nil {
		return nil
	}
	return s.check(p)
}

// mutatorStrategy is a MutatorStrategy built from functions; Build wraps
// the inner machine in a Mutant carrying the strategy's mutators.
type mutatorStrategy struct {
	name     string
	doc      string
	defaults Params
	check    func(p Params) error
	mutators func(id int, p Params, rng *rand.Rand) []Mutator
}

func (s mutatorStrategy) Name() string     { return s.name }
func (s mutatorStrategy) Doc() string      { return s.doc }
func (s mutatorStrategy) Defaults() Params { return cloneParams(s.defaults) }
func (s mutatorStrategy) CheckParams(p Params) error {
	if s.check == nil {
		return nil
	}
	return s.check(p)
}
func (s mutatorStrategy) Mutators(id int, p Params, rng *rand.Rand) []Mutator {
	return s.mutators(id, p, rng)
}
func (s mutatorStrategy) Build(b Build) (sim.Handler, error) {
	return &Mutant{Inner: b.Inner, Mutators: s.mutators(b.ID, b.Params, b.Rng), Rng: b.Rng}, nil
}

func cloneParams(p Params) Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
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
func nonNegParam(names ...string) func(Params) error {
	return func(p Params) error {
		for _, name := range names {
			if x := p[name]; !(x >= 0) {
				return fmt.Errorf("param %q: %g must be non-negative", name, x)
			}
		}
		return nil
	}
}

func init() {
	Register(wrapperStrategy{
		name:          "silent",
		doc:           "never sends a message (crashed from the start)",
		discardsInner: true,
		build: func(b Build) (sim.Handler, error) {
			return &Silent{NodeID: b.ID}, nil
		},
	})
	Register(wrapperStrategy{
		name:     "crash",
		doc:      "behaves honestly, then crashes after `after` deliveries with at most `finalSends` escaping sends",
		defaults: Params{"after": 20, "finalSends": 1},
		check:    nonNegParam("finalSends"),
		build: func(b Build) (sim.Handler, error) {
			return &Crash{
				Inner:           b.Inner,
				AfterDeliveries: int(b.Params["after"]),
				FinalSends:      int(b.Params["finalSends"]),
			}, nil
		},
	})
	Register(mutatorStrategy{
		name:     "extreme",
		doc:      "floods the extreme value `value` instead of its input",
		defaults: Params{"value": 1e9},
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{ExtremeInput(p["value"])}
		},
	})
	Register(mutatorStrategy{
		name:     "equivocate",
		doc:      "reports input + step*(neighbor+1) per out-neighbor",
		defaults: Params{"step": 0.5},
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{EquivocateInput(p["step"])}
		},
	})
	Register(mutatorStrategy{
		name:     "tamper",
		doc:      "negates and shifts every relayed value and corrupts relayed COMPLETE sets by `delta`",
		defaults: Params{"delta": 100},
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			delta := p["delta"]
			return []Mutator{
				TamperRelays(func(x float64) float64 { return -x - delta }),
				ForgeCompletes(delta),
			}
		},
	})
	Register(mutatorStrategy{
		name:     "noise",
		doc:      "perturbs every outgoing value by uniform noise in [-amp, amp]",
		defaults: Params{"amp": 10},
		check:    nonNegParam("amp"),
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{RandomNoise(p["amp"])}
		},
	})
	Register(mutatorStrategy{
		name:     "delayedequiv",
		doc:      "honest for the first `after` originations, then equivocates by `step` per neighbor — defeats detectors that only audit early rounds",
		defaults: Params{"step": 0.5, "after": 6},
		check:    nonNegParam("after"),
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{DelayedEquivocation(p["step"], int(p["after"]))}
		},
	})
	Register(mutatorStrategy{
		name:     "split",
		doc:      "targeted two-faced originations: out-neighbors with id <= `pivot` receive `lo`, the rest `hi`",
		defaults: Params{"lo": -1e6, "hi": 1e6, "pivot": 0},
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{SplitInput(p["lo"], p["hi"], int(p["pivot"]))}
		},
	})
	Register(mutatorStrategy{
		name:     "replay",
		doc:      "with probability `prob`, re-sends a previously sent payload alongside each outgoing message",
		defaults: Params{"prob": 0.3},
		check:    probParam("prob"),
		mutators: func(_ int, p Params, _ *rand.Rand) []Mutator {
			return []Mutator{Replay(p["prob"])}
		},
	})
}
