package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro"
	"repro/internal/par"
)

// The attack matrix is the adversary-layer counterpart of the protocol
// conformance experiments: every registered adversary strategy (plus a
// composed strategy and a link-fault cell) crossed with the
// Byzantine-tolerant protocols on their reference graphs. Each cell is a
// declarative Scenario, so any row is individually replayable via
// `abacsim -scenario`. Within each protocol's resilience envelope (one
// Byzantine node, f = 1) every cell must converge with validity —
// AllPassed is the summary assertion the tests pin.

// AttackCell is one (protocol, graph, adversary) cell of the matrix.
type AttackCell struct {
	Protocol  string
	Graph     string
	Adversary string
	Converged bool
	Validity  bool
	Spread    float64
	Messages  int
	// LinkStats is non-zero only for link-fault cells.
	LinkStats repro.LinkFaultStats
}

// AttackMatrixReport aggregates the attack-matrix sweep.
type AttackMatrixReport struct {
	Rows []AttackCell
}

// AllPassed reports whether every cell converged with validity.
func (r AttackMatrixReport) AllPassed() bool {
	for _, row := range r.Rows {
		if !row.Converged || !row.Validity {
			return false
		}
	}
	return true
}

// Render prints the matrix.
func (r AttackMatrixReport) Render() string {
	var b strings.Builder
	b.WriteString("attack matrix — protocol x adversary x graph (f=1)\n")
	fmt.Fprintf(&b, "  %-12s %-10s %-22s %-10s %-9s %-10s %-9s\n",
		"protocol", "graph", "adversary", "converged", "validity", "spread", "messages")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %-10s %-22s %-10v %-9v %-10.4g %-9d\n",
			row.Protocol, row.Graph, row.Adversary, row.Converged, row.Validity, row.Spread, row.Messages)
	}
	fmt.Fprintf(&b, "  all passed: %v\n", r.AllPassed())
	return b.String()
}

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

// attackScenarios builds the matrix's scenario cells: every registered
// adversary with its default params, one composed adversary, and one
// link-fault cell per target.
func attackScenarios(seed int64) []struct {
	s         repro.Scenario
	adversary string
} {
	var cells []struct {
		s         repro.Scenario
		adversary string
	}
	add := func(s repro.Scenario, adversary string) {
		cells = append(cells, struct {
			s         repro.Scenario
			adversary string
		}{s, adversary})
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
	return cells
}

// RunAttackMatrixExec runs the attack matrix over the given number of
// workers (< 1 means one per CPU, 1 runs sequentially). Cells are independent seeded scenarios, so the report is
// identical for every worker count. Cancelling
// ctx stops the matrix between runs and surfaces ctx.Err().
func RunAttackMatrixExec(ctx context.Context, seed int64, workers int) (AttackMatrixReport, error) {
	cells := attackScenarios(seed)
	rows, err := par.Map(ctx, workers, len(cells), func(i int) (AttackCell, error) {
		out, err := cells[i].s.Run()
		if err != nil {
			return AttackCell{}, fmt.Errorf("%s: %w", cells[i].s.Name, err)
		}
		return AttackCell{
			Protocol:  cells[i].s.Protocol,
			Graph:     cells[i].s.Graph,
			Adversary: cells[i].adversary,
			Converged: out.Converged,
			Validity:  out.ValidityOK,
			Spread:    out.Spread,
			Messages:  out.MessagesSent,
			LinkStats: out.LinkStats,
		}, nil
	})
	if err != nil {
		return AttackMatrixReport{}, err
	}
	return AttackMatrixReport{Rows: rows}, nil
}
