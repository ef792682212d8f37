package cond

import (
	"testing"

	"repro/internal/graph"
)

// TestTheorem5OnFigures runs the Theorem 5 checker on the paper's graphs
// (experiment E11): source components are nonempty, strongly connected in
// the reduced graph, and propagate with f+1 disjoint paths.
func TestTheorem5OnFigures(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		f int
	}{
		{graph.Fig1a(), 1},
		{graph.Fig1bAnalog(), 1},
		{graph.Clique(4), 1},
		{graph.Clique(7), 2},
	}
	for _, tc := range cases {
		rep := CheckTheorem5(tc.g, tc.f)
		if !rep.Ok() {
			t.Errorf("%s f=%d: %s", tc.g, tc.f, rep.Failure)
		}
		if rep.PairsChecked == 0 {
			t.Errorf("%s: no pairs checked", tc.g)
		}
	}
}

// TestTheorem12OnFigures runs the source-component overlap checker.
func TestTheorem12OnFigures(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		f int
	}{
		{graph.Fig1a(), 1},
		{graph.Fig1bAnalog(), 1},
		{graph.Clique(4), 1},
	}
	for _, tc := range cases {
		rep := CheckTheorem12(tc.g, tc.f)
		if !rep.Ok() {
			t.Errorf("%s f=%d: %s", tc.g, tc.f, rep.Failure)
		}
		if rep.TriplesChecked == 0 {
			t.Errorf("%s: no triples checked", tc.g)
		}
	}
}

// TestTheorem5FailsOffCondition: on a graph violating 3-reach the checker
// reports a concrete failure (K3 with f=1).
func TestTheorem5FailsOffCondition(t *testing.T) {
	rep := CheckTheorem5(graph.Clique(3), 1)
	if rep.Ok() {
		t.Error("K3 f=1 should fail the Theorem 5 properties")
	}
}

// TestCommonInfluence verifies the 3-reach witness interface used by the
// BW proof: on a 3-reach graph a common influence node exists for all
// admissible choices, and the one returned is in both reach sets.
func TestCommonInfluence(t *testing.T) {
	g := graph.Fig1a()
	count := 0
	graph.Subsets(g.Nodes(), 1, func(f graph.Set) bool {
		graph.Subsets(g.Nodes(), 1, func(fu graph.Set) bool {
			graph.Subsets(g.Nodes(), 1, func(fv graph.Set) bool {
				for u := 0; u < g.N(); u++ {
					for v := 0; v < g.N(); v++ {
						if u == v || f.Union(fu).Has(u) || f.Union(fv).Has(v) {
							continue
						}
						z := CommonInfluence(g, u, v, f, fu, fv)
						if z < 0 {
							t.Fatalf("no common influence for u=%d v=%d F=%s Fu=%s Fv=%s", u, v, f, fu, fv)
						}
						if !g.ReachSet(u, f.Union(fu)).Has(z) || !g.ReachSet(v, f.Union(fv)).Has(z) {
							t.Fatalf("returned node %d not in both reach sets", z)
						}
						count++
					}
				}
				return true
			})
			return true
		})
		return true
	})
	if count == 0 {
		t.Fatal("no cases checked")
	}
}

// TestCommonInfluenceAbsent: on K3 with f=1 some choice has no common
// influence node (that is exactly the 3-reach violation).
func TestCommonInfluenceAbsent(t *testing.T) {
	g := graph.Clique(3)
	_, w := Check3Reach(g, 1)
	if w == nil {
		t.Fatal("expected witness")
	}
	if z := CommonInfluence(g, w.U, w.V, w.F, w.Fu, w.Fv); z >= 0 {
		t.Errorf("witness should have no common influence, got %d", z)
	}
}

// CommonInfluence returns a node in reach_v(F ∪ Fv) ∩ reach_u(F ∪ Fu) — the
// "source of common influence" whose existence 3-reach guarantees — or -1
// if none exists. The BW proof (Theorem 10) uses this node as the common
// witness; the tests use it to cross-check the checker against the
// algorithm's behavior.
func CommonInfluence(g *graph.Graph, u, v int, f, fu, fv graph.Set) int {
	ru := g.ReachSet(u, f.Union(fu))
	rv := g.ReachSet(v, f.Union(fv))
	return ru.Intersect(rv).Min()
}
