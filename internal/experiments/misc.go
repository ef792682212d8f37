package experiments

import (
	"fmt"

	"repro"
	"repro/internal/adversary"
	"repro/internal/cond"
	"repro/internal/graph"
)

// necessity is E7 (Theorem 18): the indistinguishability construction on
// K3 (n = 3f for f = 1) stitches two executions that no algorithm can tell
// apart and that must decide more than ε apart.
func necessity(seed int64) Suite {
	return Suite{
		Name:  "necessity",
		Title: "E7 / Theorem 18 — necessity of 3-reach (indistinguishability construction on clique3, f=1)",
		Checks: func([]Row) []Check {
			r, err := adversary.RunNecessity(graph.Clique(3), 1, 1, 0.25, seed)
			if err != nil {
				return []Check{{Name: "the construction runs", Got: err, Want: nil}}
			}
			return []Check{
				{Name: fmt.Sprintf("witness %s: L=%s R=%s stitching structure", r.Witness.String(), r.L, r.R), Got: r.StructureOK, Want: true},
				{Name: fmt.Sprintf("e1: v=%d outputs %.4g; e2: u=%d outputs %.4g; spread %.4g >= eps %.4g — convergence violated",
					r.Witness.V, r.VOutput, r.Witness.U, r.UOutput, r.Spread, r.Eps), Got: r.Violated(), Want: true},
			}
		},
	}
}

// kreach is E10, the Appendix A k-reach family: on cliques k-reach ⟺
// n > k·f, plus directed separations.
func kreach() Suite {
	return Suite{
		Name:  "kreach",
		Title: "E10 / Appendix A — k-reach hierarchy (cliques: k-reach ⟺ n > k·f)",
		Checks: func([]Row) []Check {
			var checks []Check
			add := func(g *graph.Graph, k int, want bool) {
				holds, _ := cond.CheckKReach(g, k, 1)
				checks = append(checks, Check{Name: fmt.Sprintf("%s %d-reach (f=1)", g.Name(), k), Got: holds, Want: want})
			}
			for _, n := range []int{2, 3, 4, 5, 6} {
				for k := 2; k <= 5; k++ {
					add(graph.Clique(n), k, n > k)
				}
			}
			// The directed cycle satisfies 1-reach but not 2-reach for f=1.
			add(graph.DirectedCycle(5), 1, true)
			add(graph.DirectedCycle(5), 2, false)
			// The wheel satisfies 4-reach for f=1 (removing any two nodes
			// leaves it connected, so reach sets are 3-of-5 subsets and
			// always intersect) but fails 5-reach (three removals per side
			// can isolate disjoint rim pairs).
			add(graph.Fig1a(), 3, true)
			add(graph.Fig1a(), 4, true)
			add(graph.Fig1a(), 5, false)
			return checks
		},
	}
}

// structure is E11 (Theorems 5 and 12): source-component structure on
// 3-reach graphs.
func structure() Suite {
	return Suite{
		Name:  "structure",
		Title: "E11 / Theorems 5 & 12 — source-component structure on 3-reach graphs",
		Checks: func([]Row) []Check {
			var checks []Check
			for _, tc := range []struct {
				g *graph.Graph
				f int
			}{
				{graph.Fig1a(), 1},
				{graph.Fig1bAnalog(), 1},
				{graph.Clique(4), 1},
				{graph.Clique(7), 2},
				{graph.Circulant(7, 1, 2, 3), 1},
			} {
				name := fmt.Sprintf("%s f=%d", tc.g.Name(), tc.f)
				if ok, _ := cond.Check3Reach(tc.g, tc.f); !ok {
					checks = append(checks, Check{Name: name + ": 3-reach", Got: false, Want: true})
					continue
				}
				t5, t12 := cond.CheckTheorem5(tc.g, tc.f), cond.CheckTheorem12(tc.g, tc.f)
				checks = append(checks,
					Check{Name: fmt.Sprintf("%s: Theorem 5 (%d pairs)", name, t5.PairsChecked), Got: verdict(t5), Want: "ok"},
					Check{Name: name + ": Theorem 12", Got: verdict(t12), Want: "ok"})
			}
			return checks
		},
	}
}

func verdict(r cond.StructureReport) string {
	if r.Ok() {
		return "ok"
	}
	return r.Failure
}

// scaling is E12: BW's cost growth on sparse circulant 3-reach graphs —
// threads grow with C(n-1, <=f), messages with the redundant path count.
func scaling(seed int64) Suite {
	su := Suite{Name: "scaling", Title: "E12 / cost growth — BW on sparse circulant 3-reach graphs (f=1)"}
	for _, n := range []int{5, 6, 7, 8} {
		g := graph.Circulant(n, 1, 2, 3)
		if ok, _ := cond.Check3Reach(g, 1); !ok {
			su.Notes = append(su.Notes, fmt.Sprintf("%s: fails 3-reach (f=1), so BW has no claim there", g.Name()))
			continue
		}
		red, _ := g.CountRedundantPathsTo(0, graph.EmptySet, 0) // no budget, no error
		su.Cells = append(su.Cells, Cell{Label: fmt.Sprintf("%s threads=%d redPaths=%d", g.Name(), graph.CountSubsets(n-1, 1), red), Scenario: repro.Scenario{
			Name:  fmt.Sprintf("scaling-n%d", n),
			Graph: fmt.Sprintf("circulant:%d:1,2,3", n), Protocol: "bw",
			InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 3},
			F:        1, K: 2, Eps: 0.25, Seed: seed,
		}})
	}
	su.Checks = func(rows []Row) []Check {
		growing := true
		for i := 1; i < len(rows); i++ {
			growing = growing && rows[i].Sends > rows[i-1].Sends
		}
		return []Check{
			{Name: fmt.Sprintf("rungs run (%d): at least 3", len(rows)), Got: len(rows) >= 3, Want: true},
			{Name: "messages grow strictly with n", Got: growing, Want: true},
		}
	}
	return su
}
