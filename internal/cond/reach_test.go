package cond

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// reachSpecs instantiates every graph.NamedSpecs form small, followed by the
// seeds of graph.FuzzNamed's corpus (the malformed ones are skipped where
// they fail to parse).
var reachSpecs = []string{
	"clique:2", "clique:3", "clique:4", "clique:6", "clique:7", "cycle:3", "cycle:4", "cycle:7",
	"wheel:3", "wheel:5", "wheel:6", "fig1a", "fig1b", "fig1b-analog",
	"circulant:6:1,2", "circulant:8:1,3", "circulant:9:1,2,3", "random:5:0.3:7", "random:7:0.6:3",
	"torus:2:3", "torus:3:3", "torus:3:4", "kregular:7:2:1", "kregular:9:3:2", "expander:7:2:1", "expander:9:3:1",

	"clique:5", "clique:1", "cycle:3", "cycle:1", "wheel:4", "wheel:2", "fig1a", "fig1b", "fig1b-analog",
	"circulant:7:1,2", "circulant:1:1", "random:6:0.5:42", "random:1:1:1",
	"torus:2:2", "torus:2:5", "kregular:2:1:1", "expander:3:1:1",
	"clique:-1", "clique:99999999999999999999", "wheel:1",
	"circulant:5:", "circulant:5:1,,2", "random:5:NaN:1", "random:5:1e308:1",
	":::", "clique:5:5", "random:5:0.5:9223372036854775807", "circulant:5:-1000000",
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// reachCorpus is the graph set the core is checked on: the named forms, the
// E1/E2 random families at the seeds Table1/Table2 are run with (the test
// suite's and benchtables'), and the negative cases the paper's necessity
// argument and Figure 1(b) discussion use.
func reachCorpus() []namedGraph {
	var out []namedGraph
	add := func(name string, g *graph.Graph) { out = append(out, namedGraph{name, g}) }
	for _, spec := range reachSpecs {
		if g, err := graph.Named(spec); err == nil {
			add(spec, g)
		}
	}
	// E1 (experiments.Table1): random undirected graphs.
	for _, run := range []struct {
		samples int
		seed    int64
	}{{6, 42}, {8, 1}} {
		for _, n := range []int{4, 5, 6, 7} {
			for _, p := range []float64{0.4, 0.6, 0.8} {
				for _, f := range []int{1, 2} {
					for s := 0; s < run.samples; s++ {
						seed := run.seed + int64(1000*s) + int64(n*31+int(p*100)+f)
						add(fmt.Sprintf("undirected(%d,%.1f,%d)", n, p, seed), graph.RandomUndirected(n, p, seed))
					}
				}
			}
		}
	}
	// E2 (experiments.Table2): every digraph on 3 vertices, then random ones.
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
	for mask := 0; mask < 64; mask++ {
		g := graph.New(3)
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				g.MustAddEdge(e[0], e[1])
			}
		}
		add(fmt.Sprintf("digraph3(%#x)", mask), g)
	}
	for _, run := range []struct {
		samples int
		seed    int64
	}{{10, 7}, {12, 1}} {
		for s := 0; s < run.samples; s++ {
			for _, c := range []struct {
				n    int
				p    float64
				seed int64
			}{{4, 0.4, run.seed + int64(s)}, {5, 0.5, run.seed + int64(s) + 500}, {6, 0.6, run.seed + int64(s) + 900}} {
				add(fmt.Sprintf("random(%d,%.1f,%d)", c.n, c.p, c.seed), graph.RandomDigraph(c.n, c.p, c.seed))
			}
		}
	}
	// Negatives: Theorem 18's K3 is clique:3 above; Figure 1(b) and its
	// analog lose 3-reach with their K2->K1 bridges; two isolated vertices
	// fail everything.
	fig1b := graph.Fig1b()
	for i := 3; i < 7; i++ {
		fig1b.RemoveEdge(i+7, i)
	}
	add("fig1b-no-bridges", fig1b)
	analog := graph.Fig1bAnalog()
	analog.RemoveEdge(6, 2)
	analog.RemoveEdge(7, 3)
	add("fig1b-analog-no-bridges", analog)
	add("isolated:2", graph.New(2))
	return out
}

// forEachReachCell runs fn on every (graph, k, f) cell of the corpus whose
// reference check is affordable: the table-based checker intersects n² reach
// sets for each of C(n, <=⌈k/2⌉f)² pairs of removal sets. f = 2 at n = 14
// (Figure 1(b), the E4 cell) is inside for k <= 4; -short keeps n <= 9.
func forEachReachCell(t *testing.T, fn func(name string, g *graph.Graph, k, f int)) {
	for _, c := range reachCorpus() {
		n := c.g.N()
		if testing.Short() && n > 9 {
			continue
		}
		for k := 1; k <= 5; k++ {
			for f := 0; f <= 2; f++ {
				sets := graph.CountSubsets(n, (k+1)/2*f)
				if sets*sets*n*n > 1<<29 {
					continue
				}
				fn(c.name, c.g, k, f)
			}
		}
	}
}

// checkWitness reports what is wrong with a violation witness of k-reach,
// or "" when it is genuine: fault sets within the definition's sizes (each
// <= f for k <= 3), u and v outside their removal sets, and reach sets that
// do not meet.
func checkWitness(g *graph.Graph, k, f int, w *Witness) string {
	switch {
	case w == nil:
		return "violation without a witness"
	case k%2 == 0 && !w.F.Empty(), w.F.Count() > f:
		return "shared set F too large"
	case k == 1 && (w.Fu != w.F || w.Fv != w.F):
		return "1-reach witness must repeat F as Fu and Fv"
	case w.Fu.Count() > max(k/2, 1)*f, w.Fv.Count() > max(k/2, 1)*f:
		return "side set too large"
	case w.RemovalU().Has(w.U), w.RemovalV().Has(w.V):
		return "witness vertex inside its removal set"
	case CommonInfluence(g, w.U, w.V, w.F, w.Fu, w.Fv) >= 0:
		return "witness reach sets intersect"
	}
	return ""
}

// TestReachCoreMatchesReference: the source-component core returns the
// verdict of the table-based checker it replaced, and of the quantifier-
// by-quantifier brute force where that finishes.
func TestReachCoreMatchesReference(t *testing.T) {
	cells, negative := 0, 0
	forEachReachCell(t, func(name string, g *graph.Graph, k, f int) {
		got, _ := CheckKReach(g, k, f)
		if want, _ := refCheckKReach(g, k, f); got != want {
			t.Errorf("%s k=%d f=%d: core=%v reference=%v", name, k, f, got, want)
		}
		if pow(graph.CountSubsets(g.N(), f), k+1) <= 1<<16 {
			if want := bruteKReach(g, k, f); got != want {
				t.Errorf("%s k=%d f=%d: core=%v brute=%v", name, k, f, got, want)
			}
		}
		cells++
		if !got {
			negative++
		}
	})
	t.Logf("%d cells, %d of them negative", cells, negative)
	if cells < 1000 || negative < cells/10 || negative > cells*9/10 {
		t.Errorf("corpus is lopsided: %d cells, %d negative", cells, negative)
	}
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

// TestReachWitnessIsGenuine checks every negative cell's witness, and that
// the named entry points are CheckKReach at k = 1, 2, 3.
func TestReachWitnessIsGenuine(t *testing.T) {
	forEachReachCell(t, func(name string, g *graph.Graph, k, f int) {
		ok, w := CheckKReach(g, k, f)
		if ok {
			if w != nil {
				t.Errorf("%s k=%d f=%d: witness %s on a graph that satisfies the condition", name, k, f, w)
			}
			return
		}
		if msg := checkWitness(g, k, f, w); msg != "" {
			t.Errorf("%s k=%d f=%d: %s: %v", name, k, f, msg, w)
		}
		if k <= 3 {
			ok2, w2 := []func(*graph.Graph, int) (bool, *Witness){Check1Reach, Check2Reach, Check3Reach}[k-1](g, f)
			if ok2 || *w2 != *w {
				t.Errorf("%s f=%d: Check%dReach = %v %v, CheckKReach = false %v", name, f, k, ok2, w2, w)
			}
		}
	})
}

// FuzzReachCore drives the core with (graph spec, k, f) against the
// table-based reference: same verdict, and a genuine witness on failure.
func FuzzReachCore(f *testing.F) {
	for i, spec := range reachSpecs {
		f.Add(spec, uint8(i), uint8(i/5))
	}
	f.Add("random:8:0.25:11", uint8(2), uint8(2))
	f.Add("random:9:0.2:5", uint8(4), uint8(1))
	f.Add("kregular:10:2:9", uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, spec string, kRaw, fRaw uint8) {
		g, err := graph.Named(spec)
		if err != nil || g.N() > 10 {
			return
		}
		k, fb := 1+int(kRaw%5), int(fRaw%3)
		got, w := CheckKReach(g, k, fb)
		if want, _ := refCheckKReach(g, k, fb); got != want {
			t.Fatalf("%s k=%d f=%d: core=%v reference=%v", spec, k, fb, got, want)
		}
		if !got {
			if msg := checkWitness(g, k, fb, w); msg != "" {
				t.Fatalf("%s k=%d f=%d: %s: %v", spec, k, fb, msg, w)
			}
		}
	})
}

// TestCheckKReachNoFaultSets: a negative fault bound or k quantifies over
// nothing — the condition holds vacuously instead of sizing a table with it.
func TestCheckKReachNoFaultSets(t *testing.T) {
	for _, c := range [][2]int{{3, -1}, {-2, 1}, {1, -3}} {
		if ok, w := CheckKReach(graph.New(2), c[0], c[1]); !ok || w != nil {
			t.Errorf("CheckKReach(k=%d, f=%d) = %v %v, want vacuously true", c[0], c[1], ok, w)
		}
	}
}

// TestCheck3ReachAllocBudget fences the cell on the benchmark's set-up path
// (sim-bw and oneshot-bw-tcp certify fig1a, f = 1 before they run): the
// table-based checker took 32 allocations there.
func TestCheck3ReachAllocBudget(t *testing.T) {
	g := graph.Fig1a()
	allocs := testing.AllocsPerRun(50, func() {
		if ok, _ := Check3Reach(g, 1); !ok {
			t.Fatal("fig1a must satisfy 3-reach for f=1")
		}
	})
	if allocs > 8 {
		t.Errorf("Check3Reach(fig1a, 1) allocates %.0f times, budget 8", allocs)
	}
}
