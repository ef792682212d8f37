package experiments

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/bw"
	"repro/internal/cond"
	"repro/internal/graph"
)

// fig1a is E3: the Figure 1(a) wheel's graph facts plus a BW run with one
// Byzantine node.
func fig1a(seed int64) Suite {
	return Suite{
		Name:  "fig1a",
		Title: "E3 / Figure 1(a) — W4 stand-in, f = 1",
		Cells: []Cell{{Label: "BW, 1 Byzantine (extreme)", Scenario: repro.Scenario{
			Name: "fig1a-bw", Graph: "fig1a", Protocol: "bw",
			Inputs: []float64{0, 4, 1, 3, 2},
			F:      1, K: 4, Eps: 0.25, Seed: seed,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "extreme", Params: map[string]float64{"value": 1e6}}},
		}}},
		Checks: func([]Row) []Check {
			g := graph.Fig1a()
			minimal := true
			for _, e := range g.Edges() {
				if e[0] > e[1] {
					continue
				}
				c := g.Clone()
				c.RemoveEdge(e[0], e[1])
				c.RemoveEdge(e[1], e[0])
				if c.VertexConnectivity() > 2 {
					minimal = false
				}
			}
			reach, _ := cond.Check3Reach(g, 1)
			return []Check{
				{Name: fmt.Sprintf("κ (n=%d m=%d; κ>2f and n>3f)", g.N(), g.M()), Got: g.VertexConnectivity(), Want: 3},
				{Name: "3-reach (f=1)", Got: reach, Want: true},
				{Name: "removing any edge breaks κ>2f", Got: minimal, Want: true},
			}
		},
	}
}

// fig1b is E4: the Figure 1(b) claims, with the exhaustive f=2 check on the
// 14-node graph (a few hundred milliseconds); the BW run uses the scaled
// analog (see DESIGN.md fidelity note 7).
func fig1b(seed int64) Suite {
	return Suite{
		Name:  "fig1b",
		Title: "E4 / Figure 1(b) — two K7 cliques + 8 bridges, f = 2; BW on the scaled analog (2×K4, f=1)",
		Cells: []Cell{{Label: "BW on fig1b-analog", Scenario: repro.Scenario{
			Name: "fig1b-analog-bw", Graph: "fig1b-analog", Protocol: "bw",
			Inputs: []float64{0, 0.5, 1, 0.25, 0.75, 1, 0, 0.5},
			F:      1, K: 1, Eps: 0.25, Seed: seed,
		}}},
		Checks: func([]Row) []Check {
			g := graph.Fig1b()
			reach, _ := cond.Check3Reach(g, 2)
			vw := g.MaxDisjointPaths(0, 7, graph.EmptySet)
			broken := g.Clone()
			for i := 3; i < 7; i++ {
				broken.RemoveEdge(i+7, i)
			}
			bridged, _ := cond.Check3Reach(broken, 2)
			return []Check{
				{Name: fmt.Sprintf("3-reach (f=2), exhaustive (n=%d m=%d)", g.N(), g.M()), Got: reach, Want: true},
				{Name: "disjoint paths v1→w1 (2f = 4)", Got: vw, Want: 4},
				{Name: "disjoint paths w1→v1 (2f = 4)", Got: g.MaxDisjointPaths(7, 0, graph.EmptySet), Want: 4},
				{Name: "all-pair RMT impossible (below 2f+1), consensus still possible (Theorem 4)", Got: vw < 2*2+1, Want: true},
				{Name: "removing K2→K1 bridges breaks 3-reach", Got: !bridged, Want: true},
			}
		},
	}
}

// sufficiency is E5 (Theorem 4's constructive side): BW achieves
// approximate consensus on 3-reach graphs under every classic Byzantine
// behavior, node 1 being the faulty one (the empty kind is the honest
// control).
func sufficiency(seed int64) Suite {
	adversaries := []struct {
		name   string
		kind   string
		params map[string]float64
	}{
		{"honest", "", nil},
		{"silent", "silent", nil},
		{"crash", "crash", map[string]float64{"after": 25}},
		{"extreme", "extreme", map[string]float64{"value": -1e9}},
		{"equivocate", "equivocate", map[string]float64{"step": 0.9}},
		{"tamper", "tamper", map[string]float64{"delta": 11}},
		{"noise", "noise", map[string]float64{"amp": 50}},
	}
	su := Suite{Name: "sufficiency", Title: "E5 / Theorem 4 sufficiency — BW under Byzantine adversaries (3-reach graphs)"}
	for _, g := range []struct {
		spec string
		n    int
	}{{"clique:4", 4}, {"clique:5", 5}, {"fig1a", 5}} {
		inputs := make([]float64, g.n)
		for i := range inputs {
			inputs[i] = float64((i * 7) % 5)
		}
		for _, adv := range adversaries {
			s := repro.Scenario{
				Name: g.spec + "-" + adv.name, Graph: g.spec, Protocol: "bw",
				Inputs: inputs,
				F:      1, K: 4, Eps: 0.25, Seed: seed + int64(len(su.Cells)),
			}
			if adv.kind != "" {
				s.Faults = []repro.FaultSpec{{Node: 1, Kind: adv.kind, Params: adv.params}}
			}
			su.Cells = append(su.Cells, Cell{Label: g.spec + " " + adv.name, Scenario: s})
		}
	}
	return su
}

// convergence is E6: measured per-round contraction on the Figure 1(a)
// graph with a Byzantine extreme-value injector, against the Lemma 15
// bound K/2^r.
func convergence(seed int64) Suite {
	k, eps := 8.0, 0.2
	return Suite{
		Name:  "convergence",
		Title: fmt.Sprintf("E6 / Lemma 15 — per-round contraction (BW on fig1a, K=%g eps=%g)", k, eps),
		Cells: []Cell{{Label: "BW, 1 Byzantine (extreme)", Scenario: repro.Scenario{
			Name: "fig1a-contraction", Graph: "fig1a", Protocol: "bw",
			Inputs: []float64{0, 8, 4, 6, 2},
			F:      1, K: k, Eps: eps, Seed: seed,
			Faults: []repro.FaultSpec{{Node: 3, Kind: "extreme", Params: map[string]float64{"value": 1e9}}},
		}}},
		Checks: func(rows []Row) []Check {
			var checks []Check
			bound, spread := k, math.Inf(1)
			for r := 0; r < bw.RoundsFor(k, eps); r++ {
				bound /= 2
				spread = spreadOf(rows[0].Result.Histories, r)
				checks = append(checks, Check{Name: fmt.Sprintf("round %d: measured %.6g <= K/2^r = %.6g", r+1, spread, bound), Got: spread <= bound+1e-9, Want: true})
			}
			return append(checks, Check{Name: fmt.Sprintf("last round's spread %.6g < eps", spread), Got: spread < eps, Want: true})
		},
	}
}

// spreadOf computes max-min over a round's recorded values.
func spreadOf(histories map[int][]float64, round int) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, h := range histories {
		if round < len(h) {
			min, max = math.Min(min, h[round]), math.Max(max, h[round])
		}
	}
	return max - min
}

// aadComparison is E8: the same clique, inputs, adversary and seed under
// AAD and BW (the scenario's Protocol name switched). BW pays a
// path-flooding overhead for directed-graph generality; AAD exploits the
// clique's reliable broadcast.
func aadComparison(seed int64) Suite {
	su := Suite{Name: "aad", Title: "E8 / Abraham–Amit–Dolev baseline vs BW on cliques (f=1)"}
	for _, n := range []int{4, 5} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64((i * 3) % 4)
		}
		for _, protocol := range []string{"aad", "bw"} {
			su.Cells = append(su.Cells, Cell{Label: fmt.Sprintf("%s clique:%d", protocol, n), Scenario: repro.Scenario{
				Name:  fmt.Sprintf("%s-clique-%d", protocol, n),
				Graph: fmt.Sprintf("clique:%d", n), Protocol: protocol,
				Inputs: inputs,
				F:      1, K: 3, Eps: 0.2, Seed: seed,
				Faults: []repro.FaultSpec{{Node: 1, Kind: "silent"}},
			}})
		}
	}
	su.Checks = func(rows []Row) []Check {
		var checks []Check
		for i := 0; i < len(rows); i += 2 {
			aad, bw := rows[i].Sends, rows[i+1].Sends
			checks = append(checks, Check{Name: fmt.Sprintf("%s: AAD sends %d <= BW's %d", rows[i].Graph, aad, bw), Got: aad <= bw, Want: true})
		}
		last := len(rows) - 2
		return append(checks, Check{
			Name: fmt.Sprintf("%s: BW pays a strict path-flooding overhead (%d < %d)", rows[last].Graph, rows[last].Sends, rows[last+1].Sends),
			Got:  rows[last].Sends < rows[last+1].Sends, Want: true,
		})
	}
	return su
}

// iterativeAblation is E9: local trimmed-mean algorithms need
// (f+1,f+1)-robustness [13], strictly stronger than 3-reach — the iterative
// baseline converges on K5 and stalls on a 3-reach two-clique graph where BW
// converges.
func iterativeAblation(seed int64) Suite {
	twoClique := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	return Suite{
		Name:  "iterative",
		Title: "E9 / iterative (local trimmed-mean) ablation",
		Cells: []Cell{
			{Label: "iterative on K5", Scenario: repro.Scenario{
				Name: "k5-iterative", Graph: "clique:5", Protocol: "iterative",
				Inputs: []float64{0, 1, 2, 3, 4},
				F:      1, Eps: 0.01, Rounds: 30, Seed: seed,
			}},
			{Label: "iterative on two-clique", Expect: Expect{Outcome: Stalls}, Scenario: repro.Scenario{
				Name: "two-clique-iterative", Graph: "fig1b-analog", Protocol: "iterative",
				Inputs: twoClique,
				F:      1, Eps: 0.5, Rounds: 30, Seed: seed,
			}},
			{Label: "BW on two-clique", Scenario: repro.Scenario{
				Name: "two-clique-bw", Graph: "fig1b-analog", Protocol: "bw",
				Inputs: twoClique,
				F:      1, K: 1, Eps: 0.25, Seed: seed,
			}},
		},
		Checks: func([]Row) []Check {
			robustK5, _ := cond.CheckRobustness(graph.Clique(5), 2, 2)
			reach, _ := cond.Check3Reach(graph.Fig1bAnalog(), 1)
			robust, _ := cond.CheckRobustness(graph.Fig1bAnalog(), 2, 2)
			return []Check{
				{Name: "K5 is (2,2)-robust", Got: robustK5, Want: true},
				{Name: "two-clique satisfies 3-reach (f=1)", Got: reach, Want: true},
				{Name: "two-clique is (2,2)-robust — the separation", Got: robust, Want: false},
			}
		},
	}
}

// crashCell covers Table 2's crash/asynchronous cell (Theorem 2): the
// 2-reach algorithm under a crash fault.
func crashCell(seed int64) Suite {
	return Suite{
		Name:  "crashcell",
		Title: "Table 2 crash/async cell (Theorem 2) — 2-reach crash algorithm",
		Cells: []Cell{{Label: "crashapprox, node 2 crashes", Scenario: repro.Scenario{
			Name: "crash-cell", Graph: "circulant:5:1,2", Protocol: "crashapprox",
			Inputs: []float64{0, 1, 2, 3, 4},
			F:      1, K: 4, Eps: 0.2, Seed: seed,
			Faults: []repro.FaultSpec{{Node: 2, Kind: "crash", Params: map[string]float64{"after": 12}}},
		}}},
		Checks: func([]Row) []Check {
			ok, _ := cond.Check2Reach(graph.Circulant(5, 1, 2), 1)
			return []Check{{Name: "circulant:5:1,2 satisfies 2-reach (f=1)", Got: ok, Want: true}}
		},
	}
}
