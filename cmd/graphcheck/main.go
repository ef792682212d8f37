// Command graphcheck evaluates every topological condition of the paper on
// a graph: the 1-/2-/3-reach family (with violation witnesses), the
// Tseng–Vaidya partition conditions, vertex connectivity for undirected
// inputs, and pairwise disjoint-path counts.
//
// Usage:
//
//	graphcheck -graph fig1b -f 2
//	graphcheck -file topo.txt -f 1 -k 4
//	graphcheck -graph wheel:4 -f 1 -dot
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/graph"
)

// extrasLimit is the largest order for which graphcheck runs its scans that
// are quadratic in the vertex or removal-set count; it matches the bound
// repro.CheckConditions puts on κ.
const extrasLimit = 64

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		spec   = flag.String("graph", "", "built-in graph spec (clique:5, fig1a, fig1b, circulant:7:1,2, random:6:0.5:1, ...)")
		file   = flag.String("file", "", "graph file in the 'n <order> / e <from> <to>' format")
		f      = flag.Int("f", 1, "fault bound")
		kreach = flag.Int("k", 3, "highest k for the k-reach family report")
		dot    = flag.Bool("dot", false, "also print Graphviz DOT")
	)
	flag.Parse()
	if *f < 0 {
		return fmt.Errorf("-f %d: the fault bound must be >= 0", *f)
	}
	if *kreach < 1 {
		return fmt.Errorf("-k %d: the k-reach family starts at k = 1", *kreach)
	}

	g, err := load(*spec, *file)
	if err != nil {
		return err
	}

	fmt.Printf("graph: %s\n", g)
	rep := repro.CheckConditions(g, *f)
	fmt.Printf("f = %d\n", *f)
	if !rep.Certified {
		fmt.Printf("  %s\n", rep.Note)
		if *dot {
			fmt.Println(g.DOT())
		}
		return nil
	}
	if rep.Note != "" {
		fmt.Printf("  note: %s\n", rep.Note)
	}
	fmt.Printf("  1-reach (CCS, crash sync exact):        %v (partition form: %v)\n", rep.OneReach, rep.CCS)
	fmt.Printf("  2-reach (CCA, crash async approximate): %v (partition form: %v)\n", rep.TwoReach, rep.CCA)
	fmt.Printf("  3-reach (BCS, Byzantine — Theorem 4):   %v (partition form: %v)\n", rep.ThreeReach, rep.BCS)
	if rep.Witness3 != nil {
		fmt.Printf("  3-reach violation witness: %s\n", rep.Witness3.String())
	}
	if rep.Kappa >= 0 {
		fmt.Printf("  undirected: κ(G) = %d (n > 3f: %v, κ > 2f: %v)\n",
			rep.Kappa, g.N() > 3**f, rep.Kappa > 2**f)
	}
	// The extras below are quadratic in things CheckConditions is not: even
	// k compares every pair of removal sets, and the path scan is a max-flow
	// per vertex pair. They share κ's order bound.
	small := g.N() <= extrasLimit
	for k := 4; k <= *kreach; k++ {
		if !small {
			fmt.Printf("  %d-reach: skipped (order %d > %d)\n", k, g.N(), extrasLimit)
			continue
		}
		ok, _ := repro.CheckKReach(g, k, *f)
		fmt.Printf("  %d-reach: %v\n", k, ok)
	}

	// Disjoint-path extremes (the Figure 1(b) discussion).
	if small {
		minPair, minU, minV := g.N(), -1, -1
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				if k := g.MaxDisjointPaths(u, v, graph.EmptySet); k < minPair {
					minPair, minU, minV = k, u, v
				}
			}
		}
		fmt.Printf("  min disjoint paths over pairs: %d (%d -> %d); all-pair RMT needs 2f+1 = %d\n",
			minPair, minU, minV, 2**f+1)
	} else {
		fmt.Printf("  min disjoint paths over pairs: skipped (order %d > %d: one max-flow per vertex pair)\n", g.N(), extrasLimit)
	}

	if *dot {
		fmt.Println(g.DOT())
	}
	return nil
}

func load(spec, file string) (*repro.Graph, error) {
	switch {
	case spec != "" && file != "":
		return nil, fmt.Errorf("use either -graph or -file, not both")
	case spec != "":
		return repro.NamedGraph(spec)
	case file != "":
		fh, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		return graph.Unmarshal(fh)
	default:
		return nil, fmt.Errorf("one of -graph or -file is required")
	}
}
