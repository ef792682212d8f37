package graph

import (
	"testing"
	"testing/quick"
)

func TestDescendantsAncestors(t *testing.T) {
	// 0 -> 1 -> 2, 3 isolated.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	tests := []struct {
		name string
		got  Set
		want Set
	}{
		{"desc(0)", g.Descendants(0, EmptySet), SetOf(0, 1, 2)},
		{"desc(1)", g.Descendants(1, EmptySet), SetOf(1, 2)},
		{"desc(3)", g.Descendants(3, EmptySet), SetOf(3)},
		{"anc(2)", g.Ancestors(2, EmptySet), SetOf(0, 1, 2)},
		{"anc(0)", g.Ancestors(0, EmptySet), SetOf(0)},
		{"desc(0) excl 1", g.Descendants(0, SetOf(1)), SetOf(0)},
		{"anc(2) excl 1", g.Ancestors(2, SetOf(1)), SetOf(2)},
		{"desc of excluded", g.Descendants(1, SetOf(1)), EmptySet},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

func TestReachSetDefinition(t *testing.T) {
	// Paper's Definition 2 on the directed cycle: reach_v(F) is the arc
	// that can still reach v.
	g := DirectedCycle(4) // 0->1->2->3->0
	if got := g.ReachSet(0, SetOf(2)); got != SetOf(3, 0) {
		t.Errorf("reach_0({2}) = %s, want {0,3}", got)
	}
	// v always belongs to its own reach set.
	for v := 0; v < 4; v++ {
		if !g.ReachSet(v, EmptySet).Has(v) {
			t.Errorf("reach_%d(∅) misses v", v)
		}
	}
}

// TestAncestorsDescendantsDual checks u ∈ Ancestors(v) ⟺ v ∈ Descendants(u)
// on random graphs.
func TestAncestorsDescendantsDual(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomDigraph(7, 0.3, seed)
		for u := 0; u < 7; u++ {
			du := g.Descendants(u, EmptySet)
			for v := 0; v < 7; v++ {
				if du.Has(v) != g.Ancestors(v, EmptySet).Has(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReachMonotone: growing the removed set shrinks the reach set.
func TestReachMonotone(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := RandomDigraph(7, 0.4, seed)
		small := SetOf(int(a % 7))
		big := small.Add(int(b % 7))
		for v := 0; v < 7; v++ {
			if small.Has(v) || big.Has(v) {
				continue
			}
			rBig := g.ReachSet(v, big)
			rSmall := g.ReachSet(v, small)
			if !rSmall.Union(big).Contains(rBig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSourceComponentClique(t *testing.T) {
	g := Clique(4)
	// Removing outgoing edges of {0} leaves {1,2,3} as the source component
	// (they still reach 0 through incoming edges).
	if got := g.SourceComponent(SetOf(0), EmptySet); got != SetOf(1, 2, 3) {
		t.Errorf("S_{0},∅ = %s", got)
	}
	if got := g.SourceComponent(SetOf(0), SetOf(1)); got != SetOf(2, 3) {
		t.Errorf("S_{0},{1} = %s", got)
	}
	// Source component depends only on the union of the two sets.
	if g.SourceComponent(SetOf(0, 1), EmptySet) != g.SourceComponent(SetOf(0), SetOf(1)) {
		t.Error("source component not a function of the union")
	}
}

func TestSourceComponentCycle(t *testing.T) {
	g := DirectedCycle(4)
	// Cutting node 1's outgoing edge leaves 2 -> 3 -> 0 -> 1: node 2 reaches
	// everyone, nobody else reaches 2.
	if got := g.SourceComponent(SetOf(1), EmptySet); got != SetOf(2) {
		t.Errorf("cycle source component = %s, want {2}", got)
	}
}

func TestSourceComponentEmpty(t *testing.T) {
	// Two disconnected nodes: no node reaches all of V.
	g := New(2)
	if got := g.SourceComponent(EmptySet, EmptySet); !got.Empty() {
		t.Errorf("disconnected graph source component = %s", got)
	}
}

// TestSourceComponentStronglyConnected verifies the paper's remark after
// Definition 6: nonempty source components are strongly connected in the
// reduced graph.
func TestSourceComponentStronglyConnected(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := RandomDigraph(6, 0.4, seed)
		f1, f2 := SetOf(int(a%6)), SetOf(int(b%6))
		s := g.SourceComponent(f1, f2)
		if s.Empty() {
			return true
		}
		return g.Reduced(f1, f2).StronglyConnectedWithin(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStronglyConnected(t *testing.T) {
	if !DirectedCycle(5).IsStronglyConnected() {
		t.Error("cycle should be strongly connected")
	}
	chain := New(3)
	chain.MustAddEdge(0, 1)
	chain.MustAddEdge(1, 2)
	if chain.IsStronglyConnected() {
		t.Error("chain should not be strongly connected")
	}
	if !Clique(4).StronglyConnectedWithin(SetOf(1, 2)) {
		t.Error("sub-clique should be strongly connected within")
	}
	g := New(4)
	g.MustAddEdge(1, 0)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 1)
	// {1,2} connected through 0, which is outside the set.
	if g.StronglyConnectedWithin(SetOf(1, 2)) {
		t.Error("paths must stay inside the set")
	}
}

// IsStronglyConnected reports whether the whole graph is strongly connected.
func (g *Graph) IsStronglyConnected() bool {
	return g.StronglyConnectedWithin(g.Nodes())
}
