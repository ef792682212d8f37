package experiments

import (
	"fmt"

	"repro"
)

// The attack matrix is the adversary-layer counterpart of the protocol
// conformance experiments: every registered adversary strategy (plus a
// composed strategy and a link-fault cell) crossed with the
// Byzantine-tolerant protocols on their reference graphs. Each cell is a
// declarative Scenario, so any row is individually replayable via
// `abacsim -scenario`. Within each protocol's resilience envelope (one
// Byzantine node, f = 1) every cell must converge with validity.

// attackTarget is one protocol on its reference graph. Only protocols that
// tolerate one arbitrary Byzantine node appear: crashapprox tolerates
// crash faults only and is exercised by its own experiments.
var attackTargets = []struct {
	protocol string
	graph    string
	inputs   []float64
	k        float64
}{
	{"bw", "fig1a", []float64{0, 4, 1, 3, 2}, 4},
	{"aad", "clique:5", []float64{0, 3, 1, 2, 2}, 3},
	{"iterative", "clique:5", []float64{0, 3, 1, 2, 2}, 3},
}

// attackMatrix is E13: every registered adversary with its default params,
// one composed adversary and one link-fault cell, per target.
func attackMatrix(seed int64) Suite {
	su := Suite{Name: "attackmatrix", Title: "E13 / attack matrix — protocol x adversary x graph (f=1)"}
	add := func(s repro.Scenario, adversary string) {
		su.Cells = append(su.Cells, Cell{Label: fmt.Sprintf("%s %s %s", s.Protocol, s.Graph, adversary), Scenario: s})
	}
	for ti, tgt := range attackTargets {
		base := repro.Scenario{
			Graph: tgt.graph, Protocol: tgt.protocol, Inputs: tgt.inputs,
			F: 1, K: tgt.k, Eps: 0.25,
		}
		for ai, kind := range repro.FaultKinds() {
			s := base
			s.Name = fmt.Sprintf("attack-%s-%s", tgt.protocol, kind)
			s.Seed = seed + int64(100*ti+ai)
			s.Faults = []repro.FaultSpec{{Node: 1, Kind: kind}}
			add(s, kind)
		}
		// Composed: a crash-after-N node spraying noise until it dies.
		s := base
		s.Name = fmt.Sprintf("attack-%s-crash+noise", tgt.protocol)
		s.Seed = seed + int64(100*ti+90)
		s.Faults = []repro.FaultSpec{{
			Node: 1, Kind: "crash", Params: map[string]float64{"after": 10, "finalSends": 2},
			Compose: []repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 25}}},
		}}
		add(s, "crash+noise")
		// Link faults: duplication and delay preserve liveness, so the
		// guarantees must survive them.
		s = base
		s.Name = fmt.Sprintf("attack-%s-linkfaults", tgt.protocol)
		s.Seed = seed + int64(100*ti+91)
		s.Faults = []repro.FaultSpec{{Node: 1, Kind: "silent"}}
		s.LinkFaults = []repro.LinkFault{
			{Kind: "duplicate", Edges: [][2]int{{0, 2}}, Params: map[string]float64{"prob": 0.5}},
			{Kind: "delay", Edges: [][2]int{{2, 3}}, Params: map[string]float64{"prob": 0.5, "amount": 7}},
		}
		add(s, "silent+linkfaults")
	}
	su.Checks = func(rows []Row) []Check {
		var checks []Check
		for _, row := range rows {
			if st := row.Result.LinkStats; len(row.Cell.Scenario.LinkFaults) > 0 {
				checks = append(checks, Check{
					Name: fmt.Sprintf("%s: link faults intervened (%d duplicated, %d delayed)", row.Name, st.Duplicated, st.Delayed),
					Got:  st.Duplicated > 0 || st.Delayed > 0, Want: true,
				})
			}
		}
		return checks
	}
	return su
}
