package cond

import (
	"testing"

	"repro/internal/graph"
)

// TestCliqueThresholds reproduces the paper's Appendix A remark: on a
// clique, 1-, 2- and 3-reach are equivalent to n > f, n > 2f and n > 3f.
func TestCliqueThresholds(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for f := 0; f <= 2 && f < n-1; f++ {
			// f < n-1 keeps 1-reach non-vacuous: with |F| allowed to swallow
			// all but one node, Definition 3's quantifier ranges over no
			// pairs and the condition holds trivially.
			g := graph.Clique(n)
			if got, _ := Check1Reach(g, f); got != (n > f) {
				t.Errorf("K%d f=%d: 1-reach=%v want %v", n, f, got, n > f)
			}
			if got, _ := Check2Reach(g, f); got != (n > 2*f) {
				t.Errorf("K%d f=%d: 2-reach=%v want %v", n, f, got, n > 2*f)
			}
			if got, _ := Check3Reach(g, f); got != (n > 3*f) {
				t.Errorf("K%d f=%d: 3-reach=%v want %v", n, f, got, n > 3*f)
			}
		}
	}
}

// TestKReachCliqueThresholds extends the clique correspondence to the
// generalized family (Definition 20): k-reach on a clique iff n > kf.
func TestKReachCliqueThresholds(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for k := 1; k <= 4; k++ {
			g := graph.Clique(n)
			if got, _ := CheckKReach(g, k, 1); got != (n > k) {
				t.Errorf("K%d: %d-reach(f=1)=%v want %v", n, k, got, n > k)
			}
		}
	}
}

// TestReachHierarchy: (k+1)-reach implies k-reach.
func TestReachHierarchy(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := graph.RandomDigraph(6, 0.45, seed)
		r1, _ := Check1Reach(g, 1)
		r2, _ := Check2Reach(g, 1)
		r3, _ := Check3Reach(g, 1)
		if r3 && !r2 {
			t.Errorf("seed %d: 3-reach without 2-reach", seed)
		}
		if r2 && !r1 {
			t.Errorf("seed %d: 2-reach without 1-reach", seed)
		}
	}
}

// TestKReachSeparations exhibits witnesses for strict hierarchy levels:
// graphs satisfying k-reach but not (k+1)-reach (experiment E10).
func TestKReachSeparations(t *testing.T) {
	// K2 with f=1: 1-reach (n>f) but not 2-reach (n=2f).
	g2 := graph.Clique(2)
	if ok, _ := Check1Reach(g2, 1); !ok {
		t.Error("K2 should satisfy 1-reach for f=1")
	}
	if ok, _ := Check2Reach(g2, 1); ok {
		t.Error("K2 should fail 2-reach for f=1")
	}
	// K3 with f=1: 2-reach (n>2f) but not 3-reach (n=3f).
	g3 := graph.Clique(3)
	if ok, _ := Check2Reach(g3, 1); !ok {
		t.Error("K3 should satisfy 2-reach for f=1")
	}
	if ok, w := Check3Reach(g3, 1); ok {
		t.Error("K3 should fail 3-reach for f=1")
	} else if w == nil {
		t.Error("missing witness")
	}
	// K4 with f=1: 3-reach but not 4-reach (n=4f).
	g4 := graph.Clique(4)
	if ok, _ := Check3Reach(g4, 1); !ok {
		t.Error("K4 should satisfy 3-reach for f=1")
	}
	if ok, _ := CheckKReach(g4, 4, 1); ok {
		t.Error("K4 should fail 4-reach for f=1")
	}
}

// TestWitnessSound verifies that a returned 3-reach witness indeed has
// disjoint reach sets and legal set sizes.
func TestWitnessSound(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := graph.RandomDigraph(6, 0.3, seed)
		ok, w := Check3Reach(g, 1)
		if ok {
			continue
		}
		if w == nil {
			t.Fatalf("seed %d: violation without witness", seed)
		}
		if w.F.Count() > 1 || w.Fu.Count() > 1 || w.Fv.Count() > 1 {
			t.Errorf("seed %d: witness sets too large: %s", seed, w)
		}
		if w.RemovalU().Has(w.U) || w.RemovalV().Has(w.V) {
			t.Errorf("seed %d: witness node inside its removal set: %s", seed, w)
		}
		ru := g.ReachSet(w.U, w.RemovalU())
		rv := g.ReachSet(w.V, w.RemovalV())
		if ru.Intersects(rv) {
			t.Errorf("seed %d: witness reach sets intersect: %s", seed, w)
		}
	}
}

// TestPaperFigureConditions pins the conditions of the paper's two figures.
func TestPaperFigureConditions(t *testing.T) {
	fig1a := graph.Fig1a()
	if ok, _ := Check3Reach(fig1a, 1); !ok {
		t.Error("Figure 1(a) graph must satisfy 3-reach for f=1")
	}
	if ok, _ := Check3Reach(fig1a, 2); ok {
		t.Error("Figure 1(a) graph cannot satisfy 3-reach for f=2 (n=5 < 3f+1)")
	}
	analog := graph.Fig1bAnalog()
	if ok, _ := Check3Reach(analog, 1); !ok {
		t.Error("Figure 1(b) analog must satisfy 3-reach for f=1")
	}
	// Removing one cross edge direction breaks the condition.
	broken := analog.Clone()
	broken.RemoveEdge(6, 2)
	broken.RemoveEdge(7, 3)
	if ok, _ := Check3Reach(broken, 1); ok {
		t.Error("analog without K2->K1 bridges should fail 3-reach")
	}
}

// TestFig1bFull is the headline Figure 1(b) verification (E4): exhaustive
// 3-reach for f=2 on the 14-node graph.
func TestFig1bFull(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=14 f=2 check skipped in -short mode")
	}
	g := graph.Fig1b()
	if ok, w := Check3Reach(g, 2); !ok {
		t.Fatalf("Figure 1(b) must satisfy 3-reach for f=2; witness %v", w)
	}
	// Dropping the two K2->K1 bridge groups breaks it.
	broken := g.Clone()
	for i := 3; i < 7; i++ {
		broken.RemoveEdge(i+7, i)
	}
	if ok, _ := Check3Reach(broken, 2); ok {
		t.Error("fig1b without K2->K1 bridges should fail 3-reach")
	}
}

func TestDirectedCycleConditions(t *testing.T) {
	g := graph.DirectedCycle(5)
	if ok, _ := Check1Reach(g, 0); !ok {
		t.Error("cycle satisfies 1-reach for f=0 (strongly connected)")
	}
	// Removing one node leaves a chain whose head reaches both u and v, so
	// the cycle satisfies 1-reach even for f=1 (crash-synchronous consensus
	// is achievable on a directed ring with one crash).
	if ok, _ := Check1Reach(g, 1); !ok {
		t.Error("cycle satisfies 1-reach for f=1")
	}
	// But not 2-reach: suspecting u on v's side and v on u's side splits
	// the ring into two disjoint arcs.
	if ok, _ := Check2Reach(g, 1); ok {
		t.Error("cycle cannot satisfy 2-reach for f=1")
	}
	// A graph with two disconnected nodes fails 1-reach already at f=0.
	disc := graph.New(2)
	if ok, _ := Check1Reach(disc, 0); ok {
		t.Error("disconnected pair cannot satisfy 1-reach")
	}
}
