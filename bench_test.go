// Top-level benchmarks: one per reproduced table/figure/claim (experiment
// IDs E1–E15, see DESIGN.md and EXPERIMENTS.md). They run the same suites
// as cmd/benchtables, so `go test -bench=.` regenerates the reproduction's
// numbers while timing them.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/cond"
	"repro/internal/experiments"
	"repro/internal/graph"
)

// benchSuite runs the named catalog suite b.N times over workers and fails
// on any missed claim.
func benchSuite(b *testing.B, name string, workers int) {
	for _, su := range experiments.Catalog(1, 32) {
		if su.Name != name {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := su.Run(context.Background(), workers)
			if err != nil {
				b.Fatal(err)
			}
			if f := rep.Failures(); len(f) > 0 {
				b.Fatalf("%s: %v", name, f)
			}
		}
		return
	}
	b.Fatalf("no suite %q", name)
}

// BenchmarkTable1Undirected is E1: Table 1's undirected equivalences.
func BenchmarkTable1Undirected(b *testing.B) {
	benchSuite(b, "table1", 1)
}

// BenchmarkTable2Equivalences is E2: Theorem 17's equivalences.
func BenchmarkTable2Equivalences(b *testing.B) {
	benchSuite(b, "table2", 1)
}

// BenchmarkFig1a is E3: the Figure 1(a) claims plus a BW run.
func BenchmarkFig1a(b *testing.B) {
	benchSuite(b, "fig1a", 1)
}

// BenchmarkFig1b3Reach is the heart of E4: the exhaustive bitmask check
// that the 14-node Figure 1(b) graph satisfies 3-reach for f = 2.
func BenchmarkFig1b3Reach(b *testing.B) {
	g := graph.Fig1b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := cond.Check3Reach(g, 2); !ok {
			b.Fatal("fig1b must satisfy 3-reach")
		}
	}
}

// BenchmarkFig1bDisjointPaths measures the Menger computation behind the
// "only 2f = 4 disjoint paths" claim.
func BenchmarkFig1bDisjointPaths(b *testing.B) {
	g := graph.Fig1b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.MaxDisjointPaths(0, 7, graph.EmptySet) != 4 {
			b.Fatal("disjoint path count wrong")
		}
	}
}

// BenchmarkBWSufficiency is a single E5 cell: BW on the wheel with a
// relay-tampering Byzantine node.
func BenchmarkBWSufficiency(b *testing.B) {
	s := repro.Scenario{
		Graph: "fig1a", Protocol: "bw", Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.5,
		Faults: []repro.FaultSpec{{Node: 1, Kind: "tamper", Params: map[string]float64{"delta": 50}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i)
		res, err := s.Run()
		if err != nil || !res.Converged || !res.ValidityOK {
			b.Fatalf("run failed: %v %+v", err, res)
		}
	}
}

// BenchmarkConvergenceRate is E6: the Lemma 15 contraction series.
func BenchmarkConvergenceRate(b *testing.B) {
	benchSuite(b, "convergence", 1)
}

// BenchmarkNecessity is E7: the Theorem 18 construction on K3.
func BenchmarkNecessity(b *testing.B) {
	benchSuite(b, "necessity", 1)
}

// BenchmarkAADvsBW is E8: baseline comparison on cliques.
func BenchmarkAADvsBW(b *testing.B) {
	benchSuite(b, "aad", 1)
}

// BenchmarkIterativeAblation is E9: local algorithms vs BW.
func BenchmarkIterativeAblation(b *testing.B) {
	benchSuite(b, "iterative", 1)
}

// BenchmarkKReach is E10: the generalized condition family.
func BenchmarkKReach(b *testing.B) {
	benchSuite(b, "kreach", 1)
}

// BenchmarkStructureTheorems is E11 on the Figure 1(a) graph.
func BenchmarkStructureTheorems(b *testing.B) {
	g := graph.Fig1a()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := cond.CheckTheorem5(g, 1); !rep.Ok() {
			b.Fatal(rep.Failure)
		}
		if rep := cond.CheckTheorem12(g, 1); !rep.Ok() {
			b.Fatal(rep.Failure)
		}
	}
}

// BenchmarkCrashCell covers Table 2's crash/asynchronous cell (Theorem 2).
func BenchmarkCrashCell(b *testing.B) {
	benchSuite(b, "crashcell", 1)
}

// BenchmarkSweepWorkers compares the sequential and parallel suite runner
// on the E5b sweep (identical rows; see the determinism test) — the scaling
// knob for multi-run experiments.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchSuite(b, "sweep", workers) })
	}
}

// BenchmarkScalability is E12: BW end-to-end cost by network size on the
// sparse circulant family.
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		s := repro.Scenario{
			Graph: fmt.Sprintf("circulant:%d:1,2,3", n), Protocol: "bw",
			InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 3}, F: 1, K: 2, Eps: 0.5,
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Seed = int64(i)
				res, err := s.Run()
				if err != nil || !res.Converged {
					b.Fatalf("n=%d failed: %v", n, err)
				}
				b.ReportMetric(float64(res.MessagesSent), "msgs/run")
			}
		})
	}
}

// BenchmarkRuntimes compares the deterministic inline simulator against the
// live loopback cluster on the fig1a (BW, silent Byzantine node) and
// table1-style clique (AAD) scenarios. The gap is the price of real
// concurrency: goroutine scheduling plus a full wire encode/decode per
// message.
func BenchmarkRuntimes(b *testing.B) {
	scenarios := []repro.Scenario{
		{
			Name: "fig1a-bw", Graph: "fig1a", Protocol: "bw",
			Inputs: []float64{0, 4, 1, 3, 2}, F: 1, K: 4, Eps: 0.25, Seed: 1,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "silent"}},
		},
		{
			Name: "table1-clique8-aad", Graph: "clique:8", Protocol: "aad",
			F: 2, Eps: 0.25, Seed: 1,
			Faults: []repro.FaultSpec{{Node: 7, Kind: "silent"}},
		},
	}
	for _, s := range scenarios {
		for _, runtime := range []string{repro.RuntimeSim, repro.RuntimeLoopback} {
			b.Run(s.Name+"/"+runtime, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := s.RunOn(context.Background(), runtime)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged || !res.ValidityOK {
						b.Fatalf("%s on %s: %+v", s.Name, runtime, res)
					}
				}
			})
		}
	}
}

// BenchmarkExactMatrix is E15: the exact tier's adversary matrix.
func BenchmarkExactMatrix(b *testing.B) {
	benchSuite(b, "exact", 0)
}
