package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// TestBWScheduleSweep runs the same faulty configuration under many random
// asynchrony schedules; agreement and validity must hold under every one.
func TestBWScheduleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	g := cliqueGraph(t)
	for seed := int64(0); seed < 15; seed++ {
		outs, _ := runWithFaults(t, g, 1, []float64{0, 3, 1, 2}, 3, 0.25,
			map[int]func(sim.Handler) sim.Handler{
				// Relays carry 99 - x, COMPLETE entries x - 99.
				3: faultKind(t, 3, adversary.Spec{Kind: "tamper", Params: adversary.Params{"delta": -99}}, seed),
			}, seed)
		// Honest inputs: 0, 3, 1.
		assertAgreementValidity(t, outs, 0.25, 0, 3)
	}
}

// TestBWCrashTimingSweep crashes the faulty node at many different points,
// including mid-broadcast with varying numbers of escaping sends; liveness
// and safety must hold at every crash point (the adversarial power of the
// crash model is choosing this point).
func TestBWCrashTimingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	g := cliqueGraph(t)
	for _, after := range []int{0, 1, 2, 5, 10, 25, 60, 150, 400} {
		for _, escape := range []int{0, 1, 3} {
			after, escape := after, escape
			outs, _ := runWithFaults(t, g, 1, []float64{0, 3, 1, 2}, 3, 0.25,
				map[int]func(sim.Handler) sim.Handler{
					1: func(inner sim.Handler) sim.Handler {
						return &adversary.Crash{Inner: inner, AfterDeliveries: after, FinalSends: escape}
					},
				}, int64(after*10+escape))
			// Honest inputs: 0, 1, 2.
			assertAgreementValidity(t, outs, 0.25, 0, 2)
		}
	}
}

// TestBWDoubleFaultBeyondBound documents behavior OUTSIDE the resilience
// bound: with two faulty nodes but f = 1 on K4 (n = 3f+1 for f=1 only),
// guarantees are void — but the run must still terminate (no livelock) for
// the honest nodes or quiesce.
func TestBWDoubleFaultBeyondBound(t *testing.T) {
	g := cliqueGraph(t)
	// Two silent nodes: honest nodes may block forever waiting for
	// fullness, but the runner must reach quiescence rather than livelock.
	_, honest := runQuiescent(t, g, 1, []float64{0, 3, 1, 2}, 3, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			1: func(sim.Handler) sim.Handler { return &adversary.Silent{NodeID: 1} },
			2: func(sim.Handler) sim.Handler { return &adversary.Silent{NodeID: 2} },
		}, 3)
	if honest.Count() != 2 {
		t.Fatalf("honest set = %s", honest)
	}
}
