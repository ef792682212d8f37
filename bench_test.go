// Top-level benchmarks: one per reproduced table/figure/claim (experiment
// IDs E1–E12, see DESIGN.md and EXPERIMENTS.md). They wrap the same drivers
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

// BenchmarkTable1Undirected is E1: Table 1's undirected equivalences.
func BenchmarkTable1Undirected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Table1(3, int64(i))
		if rep.Mismatches() != 0 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

// BenchmarkTable2Equivalences is E2: Theorem 17's equivalences.
func BenchmarkTable2Equivalences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Table2(4, int64(i))
		if rep.Mismatches() != 0 {
			b.Fatal("Theorem 17 mismatch")
		}
	}
}

// BenchmarkFig1a is E3: the Figure 1(a) claims plus a BW run.
func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunFig1a(int64(i))
		if err != nil || !rep.BWConverged {
			b.Fatalf("fig1a failed: %v", err)
		}
	}
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
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunConvergence(int64(i))
		if err != nil || rep.Violations != 0 {
			b.Fatalf("convergence failed: %v", err)
		}
	}
}

// BenchmarkNecessity is E7: the Theorem 18 construction on K3.
func BenchmarkNecessity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunNecessity(int64(i))
		if err != nil || !rep.Violated {
			b.Fatalf("necessity failed: %v", err)
		}
	}
}

// BenchmarkAADvsBW is E8: baseline comparison on cliques.
func BenchmarkAADvsBW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunAADComparison(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			if !row.BothOK {
				b.Fatal("comparison failed")
			}
		}
	}
}

// BenchmarkIterativeAblation is E9: local algorithms vs BW.
func BenchmarkIterativeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunIterativeAblation(int64(i))
		if err != nil || !rep.TwoCliqueStalled || !rep.BWConverged {
			b.Fatalf("ablation failed: %v", err)
		}
	}
}

// BenchmarkKReach is E10: the generalized condition family.
func BenchmarkKReach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.RunKReach(); !rep.AllMatch() {
			b.Fatal("hierarchy mismatch")
		}
	}
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
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunCrashCell(int64(i))
		if err != nil || !rep.Converged {
			b.Fatalf("crash cell failed: %v", err)
		}
	}
}

// BenchmarkSweepWorkers compares the sequential and parallel sweep runners
// on identical workloads (byte-identical reports; see the determinism
// tests) — the scaling knob for multi-run experiments.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunSweepExec(context.Background(), 6, 1234, workers)
				if err != nil || !rep.AllPassed() {
					b.Fatalf("sweep failed: %v", err)
				}
			}
		})
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
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunExactExec(context.Background(), int64(i), 0)
		if err != nil || !rep.AllPassed() {
			b.Fatalf("exact matrix failed: %v", err)
		}
	}
}
