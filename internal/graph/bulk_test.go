package graph

import (
	"fmt"
	"slices"
	"testing"
)

// requireSameGraph compares everything a Graph exposes.
func requireSameGraph(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Name() != want.Name() {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("%s: edge lists differ", label)
	}
	for u := 0; u < want.N(); u++ {
		// Equal in content and in nil-ness, so reflect.DeepEqual callers see
		// no difference either.
		if !slices.Equal(got.Out(u), want.Out(u)) || (got.Out(u) == nil) != (want.Out(u) == nil) {
			t.Fatalf("%s: Out(%d) = %v, want %v", label, u, got.Out(u), want.Out(u))
		}
		if !slices.Equal(got.In(u), want.In(u)) || (got.In(u) == nil) != (want.In(u) == nil) {
			t.Fatalf("%s: In(%d) = %v, want %v", label, u, got.In(u), want.In(u))
		}
		if got.OutSet(u) != want.OutSet(u) || got.InSet(u) != want.InSet(u) {
			t.Fatalf("%s: neighbour sets of %d differ", label, u)
		}
	}
}

// bulkCases pairs every bulk-built generator with its per-edge reference
// over a spread of parameters: the smallest order each Named spec admits,
// the degenerate tori whose duplicate edges the per-edge path absorbs
// (2×k, k×2, and 1×k, which only Torus itself accepts), dense and sparse
// random graphs, and the sizes the experiments run.
func bulkCases() map[string][2]func() *Graph {
	cases := map[string][2]func() *Graph{}
	add := func(label string, bulk, ref func() *Graph) { cases[label] = [2]func() *Graph{bulk, ref} }
	for _, n := range []int{1, 2, 3, 5, 8, 65, 130} {
		add(fmt.Sprint("clique:", n), func() *Graph { return Clique(n) }, func() *Graph { return refClique(n) })
		if n > 1 { // the per-edge DirectedCycle(1) panicked on its self-loop
			add(fmt.Sprint("cycle:", n), func() *Graph { return DirectedCycle(n) }, func() *Graph { return refDirectedCycle(n) })
		}
	}
	for _, k := range []int{2, 3, 4, 9, 64} {
		add(fmt.Sprint("wheel:", k), func() *Graph { return Wheel(k) }, func() *Graph { return refWheel(k) })
	}
	for _, c := range []struct {
		n       int
		offsets []int
	}{{1, []int{1}}, {2, []int{1, 2, 3}}, {7, []int{1, 2, 3}}, {6, []int{-1, 0, 6, 7}}, {100, []int{1, 50, -50}}} {
		add(fmt.Sprint("circulant:", c.n, c.offsets),
			func() *Graph { return Circulant(c.n, c.offsets...) }, func() *Graph { return refCirculant(c.n, c.offsets...) })
	}
	for _, c := range []struct {
		n    int
		p    float64
		seed int64
	}{{1, 0.5, 1}, {2, 1, 1}, {6, 0.6, 13}, {40, 0, 3}, {40, 0.1, 3}, {40, 1, 3}, {200, 0.05, 9}} {
		add(fmt.Sprint("random:", c.n, c.p, c.seed),
			func() *Graph { return RandomDigraph(c.n, c.p, c.seed) }, func() *Graph { return refRandomDigraph(c.n, c.p, c.seed) })
		add(fmt.Sprint("randomU:", c.n, c.p, c.seed),
			func() *Graph { return RandomUndirected(c.n, c.p, c.seed) }, func() *Graph { return refRandomUndirected(c.n, c.p, c.seed) })
	}
	for _, c := range [][2]int{{1, 1}, {1, 2}, {1, 5}, {5, 1}, {2, 2}, {2, 3}, {2, 7}, {7, 2}, {3, 3}, {4, 8}, {8, 8}, {32, 32}} {
		add(fmt.Sprint("torus:", c[0], c[1]),
			func() *Graph { return Torus(c[0], c[1]) }, func() *Graph { return refTorus(c[0], c[1]) })
	}
	for _, c := range []struct {
		n, k int
		seed int64
	}{{2, 1, 1}, {5, 4, 2}, {16, 3, 7}, {100, 10, 1}, {130, 129, 4}} {
		add(fmt.Sprint("kregular:", c.n, c.k, c.seed),
			func() *Graph { return KRegular(c.n, c.k, c.seed) }, func() *Graph { return refKRegular(c.n, c.k, c.seed) })
	}
	for _, c := range []struct {
		n, d int
		seed int64
	}{{3, 1, 1}, {8, 3, 2}, {32, 4, 1}, {64, 31, 5}, {512, 4, 1}} {
		add(fmt.Sprint("expander:", c.n, c.d, c.seed),
			func() *Graph { return Expander(c.n, c.d, c.seed) }, func() *Graph { return refExpander(c.n, c.d, c.seed) })
	}
	for _, c := range []struct {
		k     int
		cross [][2]int
	}{{1, nil}, {1, [][2]int{{0, 1}, {1, 0}}}, {4, [][2]int{{0, 4}, {1, 5}, {6, 2}, {7, 3}}}, {7, [][2]int{{0, 7}, {0, 7}, {0, 1}}}} {
		add(fmt.Sprint("twocliques:", c.k, c.cross),
			func() *Graph { return TwoCliquesBridged(c.k, c.cross) }, func() *Graph { return refTwoCliquesBridged(c.k, c.cross) })
	}
	return cases
}

// TestBulkMatchesAddEdge: every generator's bulk-built graph equals the
// graph its endpoints give when inserted one AddEdge at a time.
func TestBulkMatchesAddEdge(t *testing.T) {
	for label, c := range bulkCases() {
		requireSameGraph(t, label, c[0](), c[1]())
	}
}

// TestBulkMatchesAddEdgeAtMaxNodes runs the widest graph the build admits,
// so the last mask word is exercised under graph4096 as well.
func TestBulkMatchesAddEdgeAtMaxNodes(t *testing.T) {
	side := 32
	if MaxNodes == 4096 {
		side = 64
	}
	requireSameGraph(t, "torus", Torus(side, side), refTorus(side, side))
	requireSameGraph(t, "expander", Expander(MaxNodes, 3, 1), refExpander(MaxNodes, 3, 1))
	requireSameGraph(t, "cycle", DirectedCycle(MaxNodes), refDirectedCycle(MaxNodes))
}

// TestBulkPanicsLikeMustAddEdge: a generator handed endpoints it cannot
// place fails the way the per-edge path did.
func TestBulkPanicsLikeMustAddEdge(t *testing.T) {
	for label, cross := range map[string][2]int{"range": {0, 9}, "negative": {-1, 0}, "self-loop": {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", label)
				}
			}()
			TwoCliquesBridged(2, [][2]int{cross})
		}()
	}
}

// TestBulkThenIncremental: the lists of a bulk-built graph share two backing
// arrays, so an edit through the incremental path must reallocate the list
// it grows and leave every other vertex's lists as they were.
func TestBulkThenIncremental(t *testing.T) {
	g, want := Torus(4, 5), refTorus(4, 5)
	edits := []struct {
		add  bool
		u, v int
	}{
		{true, 0, 7}, {true, 0, 12}, {true, 19, 0}, {true, 6, 7}, // 6->7 is a duplicate
		{false, 0, 1}, {false, 1, 0}, {true, 0, 1}, {true, 0, 13},
		{false, 19, 0}, {false, 10, 3}, // 10->3 is absent
	}
	for _, e := range edits {
		if e.add {
			g.MustAddEdge(e.u, e.v)
			want.MustAddEdge(e.u, e.v)
		} else {
			g.RemoveEdge(e.u, e.v)
			want.RemoveEdge(e.u, e.v)
		}
		requireSameGraph(t, fmt.Sprintf("after %+v", e), g, want)
	}
	requireSameGraph(t, "clone", g.Clone(), want)
}

// BenchmarkTorus32 builds the sim-iter-1k workload's graph, which
// Scenario.Materialize does once per run.
func BenchmarkTorus32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Torus(32, 32).M() != 4096 {
			b.Fatal("wrong edge count")
		}
	}
}
