package graph

import (
	"testing"
	"testing/quick"
)

func TestSCCsCycleAndClique(t *testing.T) {
	if got := DirectedCycle(5).SCCs(); len(got) != 1 || got[0] != FullSet(5) {
		t.Errorf("cycle SCCs = %v", got)
	}
	if got := Clique(4).SCCs(); len(got) != 1 || got[0] != FullSet(4) {
		t.Errorf("clique SCCs = %v", got)
	}
}

func TestSCCsChain(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	sccs := g.SCCs()
	if len(sccs) != 3 {
		t.Fatalf("chain SCCs = %v", sccs)
	}
	// Reverse topological order: sinks first.
	if sccs[0] != SetOf(2) || sccs[2] != SetOf(0) {
		t.Errorf("order wrong: %v", sccs)
	}
}

func TestSCCsTwoCycles(t *testing.T) {
	// Cycle {0,1} feeding cycle {2,3}.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(1, 2)
	sccs := g.SCCs()
	if len(sccs) != 2 {
		t.Fatalf("SCCs = %v", sccs)
	}
	if sccs[0] != SetOf(2, 3) || sccs[1] != SetOf(0, 1) {
		t.Errorf("components/order wrong: %v", sccs)
	}
	srcs := g.CondensationSources()
	if len(srcs) != 1 || srcs[0] != SetOf(0, 1) {
		t.Errorf("condensation sources = %v", srcs)
	}
}

// TestSCCPartition: components partition V and each is maximal strongly
// connected, cross-checked against reachability.
func TestSCCPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomDigraph(8, 0.25, seed)
		sccs := g.SCCs()
		var union Set
		for _, c := range sccs {
			if c.Empty() || c.Intersects(union) {
				return false
			}
			union = union.Union(c)
			if !g.StronglyConnectedWithin(c) {
				return false
			}
		}
		if union != FullSet(8) {
			return false
		}
		// Same-component iff mutually reachable.
		for u := 0; u < 8; u++ {
			du := g.Descendants(u, EmptySet)
			au := g.Ancestors(u, EmptySet)
			for v := 0; v < 8; v++ {
				same := false
				for _, c := range sccs {
					if c.Has(u) && c.Has(v) {
						same = true
					}
				}
				if same != (du.Has(v) && au.Has(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSourceComponentsMatchTarjan: for every removal set of at most two
// vertices, the masked source components are the condensation sources of
// the rebuilt induced subgraph, minus the removed vertices (which
// InducedExclude leaves behind as isolated singletons).
func TestSourceComponentsMatchTarjan(t *testing.T) {
	var graphs []*Graph
	for _, spec := range []string{
		"clique:1", "clique:3", "clique:6", "cycle:1", "cycle:5", "wheel:2", "wheel:5", "fig1a", "fig1b", "fig1b-analog",
		"circulant:7:1,2", "circulant:9:1,2,3", "random:6:0.5:42", "random:9:0.2:5", "random:12:0.15:3",
		"torus:2:2", "torus:3:4", "kregular:9:2:2", "expander:9:3:1", "cycle:70", "torus:5:14",
	} {
		g, err := Named(spec)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, RandomDigraph(4+int(seed%6), 0.15+0.1*float64(seed%5), seed),
			RandomUndirected(4+int(seed%4), 0.4+0.2*float64(seed%3), seed))
	}
	chain := New(6) // a DAG: every climb ends at vertex 0
	for v := 0; v < 5; v++ {
		chain.MustAddEdge(v, v+1)
	}
	graphs = append(graphs, chain, New(3))

	key := func(sets []Set) map[Set]bool {
		m := make(map[Set]bool, len(sets))
		for _, s := range sets {
			m[s] = true
		}
		return m
	}
	for _, g := range graphs {
		maxSize := 2
		if g.N() > 20 {
			maxSize = 1
		}
		Subsets(g.Nodes(), maxSize, func(excl Set) bool {
			got := g.SourceComponents(excl, nil)
			var want []Set
			for _, c := range g.InducedExclude(excl).CondensationSources() {
				if !c.Intersects(excl) {
					want = append(want, c)
				}
			}
			gk, wk := key(got), key(want)
			if len(got) != len(gk) || len(gk) != len(wk) {
				t.Errorf("%s minus %s: sources %v, Tarjan %v", g, excl, got, want)
				return true
			}
			for s := range wk {
				if !gk[s] {
					t.Errorf("%s minus %s: sources %v, Tarjan %v", g, excl, got, want)
				}
			}
			return true
		})
	}
}
