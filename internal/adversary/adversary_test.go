package adversary_test

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// cliqueGraph returns the standard 4-clique used across the sweeps.
func cliqueGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Clique(4)
}

// runQuiescent is runWithFaults without the all-honest-decided requirement:
// used to document behavior outside the resilience bound, where liveness is
// forfeit but the execution must still quiesce.
func runQuiescent(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64,
	faulty map[int]func(inner sim.Handler) sim.Handler, seed int64) (map[int]float64, graph.Set) {
	t.Helper()
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatalf("NewProto: %v", err)
	}
	honest := graph.EmptySet
	handlers := make([]sim.Handler, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatalf("NewMachine(%d): %v", i, err)
		}
		if wrap, bad := faulty[i]; bad {
			handlers[i] = wrap(m)
		} else {
			handlers[i] = m
			honest = honest.Add(i)
		}
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	outs, _ := r.Outputs(honest)
	return outs, honest
}

// faultKind wraps vertex id's machine in the catalog's fault spec, for
// runWithFaults's faulty map.
func faultKind(t *testing.T, id int, spec adversary.Spec, seed int64) func(sim.Handler) sim.Handler {
	return func(inner sim.Handler) sim.Handler {
		h, err := adversary.BuildHandler(id, spec, inner, seed)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

// runWithFaults executes BW where faulty[i] (if non-nil) replaces the honest
// machine at node i, and returns the outputs of the honest nodes.
func runWithFaults(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64,
	faulty map[int]func(inner sim.Handler) sim.Handler, seed int64) (map[int]float64, graph.Set) {
	t.Helper()
	outs, honest, _ := runMachinesWithFaults(t, g, f, inputs, k, eps, faulty, seed)
	return outs, honest
}

// runMachinesWithFaults is runWithFaults that also hands back every node's
// BW machine (the faulty nodes' are the wrapped, unused inner ones), for
// tests that read an honest machine's metrics after the run.
func runMachinesWithFaults(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64,
	faulty map[int]func(inner sim.Handler) sim.Handler, seed int64) (map[int]float64, graph.Set, []*bw.Machine) {
	t.Helper()
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatalf("NewProto: %v", err)
	}
	honest := graph.EmptySet
	handlers := make([]sim.Handler, g.N())
	machines := make([]*bw.Machine, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatalf("NewMachine(%d): %v", i, err)
		}
		machines[i] = m
		if wrap, bad := faulty[i]; bad {
			handlers[i] = wrap(m)
		} else {
			handlers[i] = m
			honest = honest.Add(i)
		}
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	outs, all := r.Outputs(honest)
	if !all {
		t.Fatalf("honest nodes failed to decide: outputs=%v steps=%d", outs, r.Steps())
	}
	t.Logf("graph=%s honest outputs=%v (steps=%d, sent=%d)", g, outs, r.Steps(), r.Stats().Sent)
	return outs, honest, machines
}

func assertAgreementValidity(t *testing.T, outs map[int]float64, eps, lo, hi float64) {
	t.Helper()
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range outs {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	if max-min >= eps {
		t.Errorf("convergence violated: spread %g >= %g", max-min, eps)
	}
	if min < lo || max > hi {
		t.Errorf("validity violated: [%g,%g] outside [%g,%g]", min, max, lo, hi)
	}
}

func TestBWWithSilentFault(t *testing.T) {
	g := graph.Fig1a()
	outs, _ := runWithFaults(t, g, 1, []float64{0, 4, 1, 3, 2}, 4, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			2: func(sim.Handler) sim.Handler { return &adversary.Silent{NodeID: 2} },
		}, 11)
	// Honest inputs: 0, 4, 3, 2.
	assertAgreementValidity(t, outs, 0.25, 0, 4)
}

func TestBWWithCrashMidway(t *testing.T) {
	g := graph.Clique(4)
	outs, _ := runWithFaults(t, g, 1, []float64{0, 3, 1, 2}, 3, 0.2,
		map[int]func(sim.Handler) sim.Handler{
			1: func(inner sim.Handler) sim.Handler {
				return &adversary.Crash{Inner: inner, AfterDeliveries: 40, FinalSends: 1}
			},
		}, 13)
	assertAgreementValidity(t, outs, 0.2, 0, 3)
}

func TestBWWithExtremeInjector(t *testing.T) {
	g := graph.Clique(4)
	outs, _ := runWithFaults(t, g, 1, []float64{1, 0, 1.5, 2}, 3, 0.2,
		map[int]func(sim.Handler) sim.Handler{
			1: faultKind(t, 1, adversary.Spec{Kind: "extreme", Params: adversary.Params{"value": 1e9}}, 5),
		}, 17)
	// Honest inputs: 1, 1.5, 2 — validity must hold despite the 1e9 bomb.
	assertAgreementValidity(t, outs, 0.2, 1, 2)
}

func TestBWWithEquivocator(t *testing.T) {
	g := graph.Fig1a()
	outs, _ := runWithFaults(t, g, 1, []float64{0, 2, 4, 1, 3}, 4, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			1: faultKind(t, 1, adversary.Spec{Kind: "equivocate", Params: adversary.Params{"step": 0.7}}, 6),
		}, 19)
	// Honest inputs: 0, 4, 1, 3.
	assertAgreementValidity(t, outs, 0.25, 0, 4)
}

func TestBWWithTamperingRelay(t *testing.T) {
	g := graph.Clique(5)
	inputs := []float64{0, 1, 2, 3, 4}
	outs, _ := runWithFaults(t, g, 1, inputs, 4, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			3: faultKind(t, 3, adversary.Spec{Kind: "tamper", Params: adversary.Params{"delta": 100}}, 7),
		}, 23)
	// Honest inputs: 0, 1, 2, 4.
	assertAgreementValidity(t, outs, 0.25, 0, 4)
}

func TestNecessityOnK3(t *testing.T) {
	g := graph.Clique(3) // n = 3f for f = 1: 3-reach fails
	res, err := adversary.RunNecessity(g, 1, 1, 0.25, 99)
	if err != nil {
		t.Fatalf("RunNecessity: %v", err)
	}
	t.Logf("%s", res)
	if !res.StructureOK {
		t.Fatalf("stitching structure check failed: %s", res)
	}
	if !res.Violated() {
		t.Fatalf("expected convergence violation, got %s", res)
	}
}

func TestNecessityRejectsGoodGraph(t *testing.T) {
	if _, err := adversary.RunNecessity(graph.Clique(4), 1, 1, 0.25, 1); err == nil {
		t.Fatal("expected ErrConditionHolds on K4 with f=1")
	}
}
