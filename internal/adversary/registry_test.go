package adversary_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestRegistryListsBuiltins(t *testing.T) {
	names := adversary.Adversaries()
	for _, want := range []string{
		"silent", "crash", "extreme", "equivocate", "tamper", "noise",
		"delayedequiv", "split", "replay",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Adversaries() = %v, missing %q", names, want)
		}
	}
	for _, name := range names {
		if _, err := adversary.Defaults(name); err != nil {
			t.Fatal(err)
		}
		if adversary.Doc(name) == "" {
			t.Errorf("kind %q has no doc", name)
		}
	}
}

func TestByNameUnknownIsError(t *testing.T) {
	if _, err := adversary.Defaults("gremlin"); err == nil ||
		!strings.Contains(err.Error(), "valid values are") {
		t.Errorf("unknown kind error unhelpful: %v", err)
	}
	if doc := adversary.Doc("gremlin"); doc != "" {
		t.Errorf("unknown kind has doc %q", doc)
	}
}

func TestSpecValidateRejectsEagerly(t *testing.T) {
	cases := []struct {
		name   string
		spec   adversary.Spec
		errHas string
	}{
		{"unknown kind", adversary.Spec{Kind: "gremlin"}, "unknown fault kind"},
		{"unknown param", adversary.Spec{Kind: "crash", Params: adversary.Params{"fuel": 3}}, `unknown param "fuel"`},
		{"unknown compose kind", adversary.Spec{Kind: "crash", Compose: []adversary.Layer{{Kind: "warp"}}}, "compose[0]"},
		{"non-mutator compose", adversary.Spec{Kind: "noise", Compose: []adversary.Layer{{Kind: "crash"}}}, "cannot compose"},
		{"compose under silent", adversary.Spec{Kind: "silent", Compose: []adversary.Layer{{Kind: "noise"}}}, "cannot carry composed mutators"},
		{"prob out of range", adversary.Spec{Kind: "replay", Params: adversary.Params{"prob": 1.5}}, "outside [0, 1]"},
		{"negative count", adversary.Spec{Kind: "crash", Params: adversary.Params{"finalSends": -3}}, "must be non-negative"},
		{"negative amp in compose", adversary.Spec{Kind: "crash", Compose: []adversary.Layer{{Kind: "noise", Params: adversary.Params{"amp": -1}}}}, "must be non-negative"},
		{"compose param", adversary.Spec{Kind: "crash", Compose: []adversary.Layer{{Kind: "noise", Params: adversary.Params{"vol": 1}}}}, `unknown param "vol"`},
		{"NaN prob", adversary.Spec{Kind: "replay", Params: adversary.Params{"prob": math.NaN()}}, "outside [0, 1]"},
		{"NaN amp", adversary.Spec{Kind: "noise", Params: adversary.Params{"amp": math.NaN()}}, "must be non-negative"},
		{"NaN count", adversary.Spec{Kind: "crash", Params: adversary.Params{"finalSends": math.NaN()}}, "must be non-negative"},
		{"NaN after", adversary.Spec{Kind: "crash", Params: adversary.Params{"after": math.NaN()}}, "not finite"},
		{"Inf after", adversary.Spec{Kind: "crash", Params: adversary.Params{"after": math.Inf(1)}}, "not finite"},
		{"Inf amp", adversary.Spec{Kind: "noise", Params: adversary.Params{"amp": math.Inf(1)}}, "not finite"},
		{"Inf amp in compose", adversary.Spec{Kind: "crash", Compose: []adversary.Layer{{Kind: "noise", Params: adversary.Params{"amp": math.Inf(1)}}}}, "not finite"},
		{"fractional after", adversary.Spec{Kind: "crash", Params: adversary.Params{"after": 2.5}}, "not a whole number"},
		{"fractional finalSends", adversary.Spec{Kind: "crash", Params: adversary.Params{"finalSends": 0.5}}, "not a whole number"},
		{"fractional delayedequiv after", adversary.Spec{Kind: "delayedequiv", Params: adversary.Params{"after": 1.25}}, "not a whole number"},
		{"fractional pivot", adversary.Spec{Kind: "split", Params: adversary.Params{"pivot": 1.5}}, "not a whole number"},
		{"huge pivot", adversary.Spec{Kind: "split", Params: adversary.Params{"pivot": 1e300}}, "not a whole number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("accepted: %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
	if err := (adversary.Spec{Kind: "crash", Params: adversary.Params{"after": 5, "finalSends": 2},
		Compose: []adversary.Layer{{Kind: "noise", Params: adversary.Params{"amp": 2}}}}).Validate(); err != nil {
		t.Errorf("valid composed spec rejected: %v", err)
	}
	// A NaN value is an attack the machines must survive, not a bad knob.
	if err := (adversary.Spec{Kind: "extreme", Params: adversary.Params{"value": math.NaN()}}).Validate(); err != nil {
		t.Errorf("extreme value NaN rejected: %v", err)
	}
	// So is every other forged value, and a negative whole crash count
	// crashes at Start, as it always has.
	for _, spec := range []adversary.Spec{
		{Kind: "tamper", Params: adversary.Params{"delta": math.Inf(-1)}},
		{Kind: "split", Params: adversary.Params{"lo": math.NaN(), "hi": math.Inf(1), "pivot": -2}},
		{Kind: "equivocate", Params: adversary.Params{"step": math.NaN()}},
		{Kind: "crash", Params: adversary.Params{"after": -1}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", spec, err)
		}
	}
}

// TestBuildHandlerUnknownKindHardError pins the satellite fix: unknown
// fault construction errors instead of silently returning the honest
// handler.
func TestBuildHandlerUnknownKindHardError(t *testing.T) {
	if _, err := adversary.BuildHandler(1, adversary.Spec{Kind: "gremlin"}, &adversary.Silent{NodeID: 1}, 1); err == nil {
		t.Fatal("unknown kind built a handler")
	}
}

// bwHandlers builds honest BW machines on g with inputs i mod 4.
func bwHandlers(t *testing.T, g *graph.Graph) []sim.Handler {
	t.Helper()
	proto, err := bw.NewProto(g, 1, 4, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	for i := range handlers {
		m, err := bw.NewMachine(proto, i, float64(i%4))
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
	}
	return handlers
}

// TestComposedCrashNoise runs a crash-after-N node that sprays noise until
// it dies: the wrapper encloses the composed Mutant and the honest nodes
// still converge.
func TestComposedCrashNoise(t *testing.T) {
	g := graph.Fig1a()
	handlers := bwHandlers(t, g)
	spec := adversary.Spec{
		Kind:    "crash",
		Params:  adversary.Params{"after": 8, "finalSends": 2},
		Compose: []adversary.Layer{{Kind: "noise", Params: adversary.Params{"amp": 50}}},
	}
	h, err := adversary.BuildHandler(1, spec, handlers[1], adversary.NodeSeed(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	handlers[1] = h
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(3)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	honest := g.Nodes().Remove(1)
	outs, all := r.Outputs(honest)
	if !all {
		t.Fatalf("honest nodes did not decide: %v", outs)
	}
	assertAgreementValidity(t, outs, 0.25, 0, 3)
}

// TestNewStrategiesTolerated runs each newly registered strategy as the
// single Byzantine node of a fig1a BW execution: f=1 tolerates any
// behavior, so the honest nodes must converge with validity.
func TestNewStrategiesTolerated(t *testing.T) {
	for _, kind := range []string{"delayedequiv", "split", "replay"} {
		t.Run(kind, func(t *testing.T) {
			g := graph.Fig1a()
			handlers := bwHandlers(t, g)
			h, err := adversary.BuildHandler(1, adversary.Spec{Kind: kind}, handlers[1], adversary.NodeSeed(9, 1))
			if err != nil {
				t.Fatal(err)
			}
			handlers[1] = h
			r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(9)}, handlers)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			honest := g.Nodes().Remove(1)
			outs, all := r.Outputs(honest)
			if !all {
				t.Fatalf("honest nodes did not decide: %v", outs)
			}
			assertAgreementValidity(t, outs, 0.25, 0, 3)
		})
	}
}

// TestNodeSeedDecorrelatesNoiseStreams is the regression test for the
// seed-derivation satellite: two adjacent faulty nodes running the same
// noise strategy must perturb with distinct streams. Under the old
// opts.Seed+i derivation adjacent sources handed out correlated values;
// with the splitmix derivation the actual noise offset sequences of
// nodes 1 and 2 must differ, for every probed base seed.
func TestNodeSeedDecorrelatesNoiseStreams(t *testing.T) {
	stream := func(seed int64) []float64 {
		h, err := adversary.BuildHandler(1, adversary.Spec{Kind: "noise", Params: adversary.Params{"amp": 1}}, originator{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		col := sim.NewCollector(1, graph.Clique(4))
		h.Start(col)
		var out []float64
		for _, m := range col.Messages() {
			out = append(out, m.Payload.(bw.ValPayload).Value)
		}
		return out
	}
	for base := int64(0); base < 50; base++ {
		a := stream(adversary.NodeSeed(base, 1))
		b := stream(adversary.NodeSeed(base, 2))
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("base seed %d: adjacent nodes drew identical noise streams %v", base, a)
		}
	}
}

// originator sends eight zero-valued originations from vertex 1 to vertex 0
// on Start: a probe for the noise a wrapping kind adds.
type originator struct{}

func (originator) ID() int { return 1 }

func (originator) Start(out *sim.Outbox) {
	for range 8 {
		out.Send(0, bw.ValPayload{Round: 1})
	}
}

func (originator) Deliver(transport.Message, *sim.Outbox) {}

func (originator) Output() (float64, bool) { return 0, false }
