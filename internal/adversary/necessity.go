package adversary

import (
	"errors"
	"fmt"

	"repro/internal/bw"
	"repro/internal/cond"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// This file implements the Theorem 18 (Appendix B) necessity demonstration.
//
// Given a graph that violates 3-reach with witness (u, v, F, Fu, Fv), the
// paper builds three executions: e1 (all inputs 0, Fv crashed from the
// start), e2 (all inputs K, Fu crashed) and a stitched execution e3 in
// which the Byzantine set F behaves toward L := reach_v(F ∪ Fv) exactly as
// in e1 and toward R := reach_u(F ∪ Fu) exactly as in e2, while messages
// from Fv into L and from Fu into R are delayed past both decision times.
// Indistinguishability then forces v to output 0 and u to output K in e3.
//
// The demonstration here is the proof made executable:
//
//  1. it verifies the two structural facts the stitching rests on —
//     L ∩ R = ∅ (the violated 3-reach intersection) and
//     in-neighbors(L) ⊆ L ∪ F ∪ Fv, in-neighbors(R) ⊆ R ∪ F ∪ Fu
//     (so L's entire view is generated by L ∪ F once Fv is silent, and
//     symmetrically for R), and
//  2. it actually runs e1 and e2 and records the decided outputs 0 and K.
//
// Because L's view in e3 is byte-identical to its view in e1 (F replays its
// e1 transcript, Fv's messages are delayed) and R's to e2, the recorded
// outputs are the outputs of e3, and they differ by K >= eps: convergence is
// violated. Every premise that the stitching needs is machine-checked.
type NecessityResult struct {
	Witness     cond.Witness
	L, R        graph.Set
	StructureOK bool
	VOutput     float64
	VDecided    bool
	UOutput     float64
	UDecided    bool
	Eps         float64
	Spread      float64
}

// Violated reports whether the construction exhibited a convergence
// violation.
func (r *NecessityResult) Violated() bool {
	return r.StructureOK && r.VDecided && r.UDecided && r.Spread >= r.Eps
}

// String summarizes the result.
func (r *NecessityResult) String() string {
	return fmt.Sprintf("necessity(witness{%s} L=%s R=%s structure=%v v->%g u->%g spread=%g eps=%g violated=%v)",
		r.Witness.String(), r.L, r.R, r.StructureOK, r.VOutput, r.UOutput, r.Spread, r.Eps, r.Violated())
}

// ErrConditionHolds is returned when the target graph satisfies 3-reach, so
// no necessity construction exists.
var ErrConditionHolds = errors.New("adversary: graph satisfies 3-reach; no violation witness")

// RunNecessity executes the Theorem 18 construction on g with fault bound f.
// k is the a-priori input range bound (e2 uses input k everywhere) and eps
// the agreement parameter; k >= eps is required for a meaningful violation.
func RunNecessity(g *graph.Graph, f int, k, eps float64, seed int64) (*NecessityResult, error) {
	if f < 0 {
		return nil, fmt.Errorf("adversary: negative fault bound f=%d", f)
	}
	ok, w := cond.Check3Reach(g, f)
	if ok {
		return nil, ErrConditionHolds
	}
	// In the witness, V's removal set is F ∪ Fv and U's is F ∪ Fu. Per the
	// paper, v is the 0-side (e1 crashes Fv) and u the K-side (e2 crashes
	// Fu).
	v, u := w.V, w.U
	fv, fu := w.Fv, w.Fu
	res := &NecessityResult{
		Witness: *w,
		L:       g.ReachSet(v, w.RemovalV()),
		R:       g.ReachSet(u, w.RemovalU()),
		Eps:     eps,
	}

	res.StructureOK = res.L.Intersect(res.R).Empty() &&
		inNeighborsWithin(g, res.L, res.L.Union(w.F).Union(fv)) &&
		inNeighborsWithin(g, res.R, res.R.Union(w.F).Union(fu))

	// e1: all inputs 0, Fv crashed from the beginning.
	out1, dec1, err := runCrashExecution(g, f, k, eps, fv, 0, v, seed)
	if err != nil {
		return nil, fmt.Errorf("adversary: e1: %w", err)
	}
	res.VOutput, res.VDecided = out1, dec1

	// e2: all inputs k, Fu crashed from the beginning.
	out2, dec2, err := runCrashExecution(g, f, k, eps, fu, k, u, seed+1)
	if err != nil {
		return nil, fmt.Errorf("adversary: e2: %w", err)
	}
	res.UOutput, res.UDecided = out2, dec2

	if res.VDecided && res.UDecided {
		res.Spread = res.UOutput - res.VOutput
		if res.Spread < 0 {
			res.Spread = -res.Spread
		}
	}
	return res, nil
}

func inNeighborsWithin(g *graph.Graph, set, within graph.Set) bool {
	ok := true
	set.ForEach(func(z int) bool {
		if !within.Contains(g.InSet(z)) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// runCrashExecution runs BW with the given set crashed from the start and
// every other node holding the same input; it returns the target node's
// output.
func runCrashExecution(g *graph.Graph, f int, k, eps float64, crashed graph.Set, input float64, target int, seed int64) (float64, bool, error) {
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		return 0, false, err
	}
	handlers := make([]sim.Handler, g.N())
	for i := 0; i < g.N(); i++ {
		if crashed.Has(i) {
			handlers[i] = &Silent{NodeID: i}
			continue
		}
		m, err := bw.NewMachine(proto, i, input)
		if err != nil {
			return 0, false, err
		}
		handlers[i] = m
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		return 0, false, err
	}
	if err := r.Run(); err != nil {
		return 0, false, err
	}
	out, decided := r.Handler(target).Output()
	return out, decided, nil
}
