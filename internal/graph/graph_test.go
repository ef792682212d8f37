package graph

import (
	"errors"
	"reflect"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err != nil { // duplicate is a no-op
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d after duplicate insert", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directedness broken")
	}
	if !reflect.DeepEqual(g.Out(0), []int{1}) || !reflect.DeepEqual(g.In(1), []int{0}) {
		t.Error("adjacency lists wrong")
	}
}

// TestHasEdgeOutOfRange: an id outside [0, n) is no edge's endpoint — at
// either end, below zero, between n and MaxNodes, and beyond MaxNodes,
// where the out-set has no word to read.
func TestHasEdgeOutOfRange(t *testing.T) {
	g := Fig1a()
	n := g.N()
	for _, e := range [][2]int{{0, -1}, {0, n}, {0, MaxNodes}, {0, 2000}, {-1, 0}, {n, 0}, {MaxNodes, 0}} {
		if g.HasEdge(e[0], e[1]) {
			t.Errorf("HasEdge(%d, %d) = true on %d vertices", e[0], e[1], n)
		}
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("HasEdge(%d, %d) = false on an edge", e[0], e[1])
		}
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop error = %v", err)
	}
	if err := g.AddEdge(0, 3); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range error = %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range error = %v", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Clique(4)
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("RemoveEdge broke wrong direction")
	}
	if g.M() != 11 {
		t.Errorf("M = %d, want 11", g.M())
	}
	g.RemoveEdge(1, 2) // no-op
	if g.M() != 11 {
		t.Error("double remove changed count")
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1, 3} {
		g.MustAddEdge(0, v)
	}
	if !reflect.DeepEqual(g.Out(0), []int{1, 2, 3, 4, 5}) {
		t.Errorf("Out not sorted: %v", g.Out(0))
	}
	if g.OutSet(0) != SetOf(1, 2, 3, 4, 5) {
		t.Errorf("OutSet = %s", g.OutSet(0))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Clique(3)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("clone mutation affected original")
	}
	if c.Name() != g.Name() {
		t.Error("clone lost name")
	}
}

func TestInducedExclude(t *testing.T) {
	g := Clique(4)
	sub := g.InducedExclude(SetOf(3))
	if sub.HasEdge(0, 3) || sub.HasEdge(3, 0) {
		t.Error("excluded node still has edges")
	}
	if sub.M() != 6 {
		t.Errorf("induced M = %d, want 6 (K3)", sub.M())
	}
}

func TestReducedRemovesOnlyOutgoing(t *testing.T) {
	g := Clique(3)
	red := g.Reduced(SetOf(0), EmptySet)
	if red.HasEdge(0, 1) || red.HasEdge(0, 2) {
		t.Error("outgoing edges of reduced node remain")
	}
	if !red.HasEdge(1, 0) || !red.HasEdge(2, 0) {
		t.Error("incoming edges of reduced node were removed")
	}
}

func TestIsUndirected(t *testing.T) {
	if !Clique(4).IsUndirected() {
		t.Error("clique should be undirected")
	}
	if DirectedCycle(4).IsUndirected() {
		t.Error("cycle should be directed")
	}
	if !Wheel(4).IsUndirected() {
		t.Error("wheel should be undirected")
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := DirectedCycle(3)
	want := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestGraphString(t *testing.T) {
	if got := Clique(3).String(); got != "clique3(n=3, m=6)" {
		t.Errorf("String = %q", got)
	}
	if got := New(2).String(); got != "graph(n=2, m=0)" {
		t.Errorf("String = %q", got)
	}
}

// AddBoth inserts both (u, v) and (v, u); used to embed undirected graphs.
func (g *Graph) AddBoth(u, v int) error {
	if err := g.AddEdge(u, v); err != nil {
		return err
	}
	return g.AddEdge(v, u)
}

// OutSet returns u's out-neighborhood as a set.
func (g *Graph) OutSet(u int) Set { return g.outMask[u] }

// InducedExclude returns a new graph on the same node IDs with every edge
// incident to a node of excl removed (the subgraph induced by V \ excl,
// keeping the original numbering; excluded nodes become isolated).
func (g *Graph) InducedExclude(excl Set) *Graph {
	c := New(g.n)
	c.name = g.name
	for u := 0; u < g.n; u++ {
		if excl.Has(u) {
			continue
		}
		for _, v := range g.out[u] {
			if !excl.Has(v) {
				c.MustAddEdge(u, v)
			}
		}
	}
	return c
}
