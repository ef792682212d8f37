// Package experiments is the reproduction harness: every table, figure and
// claim of the paper (see EXPERIMENTS.md's experiment index) is one Suite —
// cells, each a repro.Scenario on a runtime with the outcome the claim
// states, plus checks for the facts that are not one run. One runner
// executes a suite, one renderer prints it and one pass rule
// (Report.Failures) judges it; cmd/benchtables loops over Catalog and the
// top-level benchmarks re-run the same suites, so EXPERIMENTS.md numbers are
// regenerable with one command. Rows are deterministic for a fixed seed
// whatever the fan-out.
package experiments

import (
	"fmt"

	"repro/internal/cond"
	"repro/internal/graph"
)

// table1 is E1: on random undirected graphs the reach conditions must
// coincide with Table 1's thresholds — 2-reach ⟺ (n > 2f ∧ κ(G) > f), the
// asynchronous crash column, and 3-reach ⟺ (n > 3f ∧ κ(G) > 2f), the
// Byzantine column.
func table1(samples int, seed int64) Suite {
	return Suite{
		Name:  "table1",
		Title: "E1 / Table 1 — undirected graphs: 2-reach ⟺ n>2f ∧ κ>f (crash, async), 3-reach ⟺ n>3f ∧ κ>2f (Byzantine)",
		Checks: func([]Row) []Check {
			var checks []Check
			for _, n := range []int{4, 5, 6, 7} {
				for _, p := range []float64{0.4, 0.6, 0.8} {
					for _, f := range []int{1, 2} {
						mismatch2, mismatch3, holds3 := 0, 0, 0
						for s := 0; s < samples; s++ {
							g := graph.RandomUndirected(n, p, seed+int64(1000*s)+int64(n*31+int(p*100)+f))
							kappa := g.VertexConnectivity()
							got2, _ := cond.Check2Reach(g, f)
							got3, _ := cond.Check3Reach(g, f)
							if got2 != (n > 2*f && kappa > f) {
								mismatch2++
							}
							if got3 != (n > 3*f && kappa > 2*f) {
								mismatch3++
							}
							if got3 {
								holds3++
							}
						}
						checks = append(checks, Check{
							Name: fmt.Sprintf("n=%d p=%.2f f=%d: 2-/3-reach mismatches over %d samples (%d hold 3-reach)", n, p, f, samples, holds3),
							Got:  fmt.Sprintf("%d/%d", mismatch2, mismatch3), Want: "0/0",
						})
					}
				}
			}
			return checks
		},
	}
}

// table2 is E2: Theorem 17's equivalences — CCS ⟺ 1-reach,
// CCA ⟺ 2-reach, BCS ⟺ 3-reach — exhaustively over all digraphs on 3
// nodes and on random digraphs of orders 4..6.
func table2(samples int, seed int64) Suite {
	return Suite{
		Name:  "table2",
		Title: "E2 / Table 2 — directed graphs: Theorem 17 equivalences",
		Checks: func([]Row) []Check {
			names := []string{"CCS ⟺ 1-reach (crash, synchronous)", "CCA ⟺ 2-reach (crash, asynchronous)", "BCS ⟺ 3-reach (Byzantine, both — this paper)"}
			var mismatch, holds [3]int
			checked := 0
			check := func(g *graph.Graph, f int) {
				r1, _ := cond.Check1Reach(g, f)
				c1, _ := cond.CheckCCS(g, f)
				r2, _ := cond.Check2Reach(g, f)
				c2, _ := cond.CheckCCA(g, f)
				r3, _ := cond.Check3Reach(g, f)
				c3, _ := cond.CheckBCS(g, f)
				for i, pair := range [3][2]bool{{r1, c1}, {r2, c2}, {r3, c3}} {
					if pair[0] != pair[1] {
						mismatch[i]++
					}
					if pair[0] {
						holds[i]++
					}
				}
				checked++
			}
			// Exhaustive n=3.
			pairs := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
			for mask := 0; mask < 64; mask++ {
				g := graph.New(3)
				for i, e := range pairs {
					if mask&(1<<i) != 0 {
						g.MustAddEdge(e[0], e[1])
					}
				}
				check(g, 1)
			}
			// Randomized larger orders.
			for s := 0; s < samples; s++ {
				check(graph.RandomDigraph(4, 0.4, seed+int64(s)), 1)
				check(graph.RandomDigraph(5, 0.5, seed+int64(s)+500), 1)
				check(graph.RandomDigraph(6, 0.6, seed+int64(s)+900), 2)
			}
			checks := []Check{{Name: fmt.Sprintf("graphs checked per equivalence: %d (all 64 on 3 nodes plus random orders 4–6)", checked), Got: checked >= 64, Want: true}}
			for i, name := range names {
				checks = append(checks, Check{Name: fmt.Sprintf("%s: mismatches (%d hold)", name, holds[i]), Got: mismatch[i], Want: 0})
			}
			return checks
		},
	}
}
