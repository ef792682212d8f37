package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cond"
	"repro/internal/graph"
	"repro/internal/par"
)

// SweepRow is one random-graph row of the generality sweep.
type SweepRow struct {
	Seed      int64
	N, M      int
	Adversary string
	Converged bool
	Validity  bool
	Spread    float64
	Messages  int
}

// SweepReport is experiment E5b: BW on randomly generated 3-reach digraphs
// with randomly chosen Byzantine behaviors. Unlike E5's fixed graphs, this
// demonstrates the algorithm on topologies with no hand-built structure.
type SweepReport struct {
	Candidates int // random digraphs examined
	Satisfying int // of which satisfied 3-reach
	Rows       []SweepRow
}

// AllPassed reports whether every run converged with validity.
func (r SweepReport) AllPassed() bool {
	for _, row := range r.Rows {
		if !row.Converged || !row.Validity {
			return false
		}
	}
	return true
}

// Render prints the sweep.
func (r SweepReport) Render() string {
	var b strings.Builder
	b.WriteString("E5b / generality sweep — BW on random 3-reach digraphs (f=1)\n")
	fmt.Fprintf(&b, "  %d random digraphs examined, %d satisfied 3-reach, %d executed\n",
		r.Candidates, r.Satisfying, len(r.Rows))
	fmt.Fprintf(&b, "  %-6s %-4s %-4s %-12s %-10s %-9s %-10s %-9s\n",
		"seed", "n", "m", "adversary", "converged", "validity", "spread", "messages")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6d %-4d %-4d %-12s %-10v %-9v %-10.4g %-9d\n",
			row.Seed, row.N, row.M, row.Adversary, row.Converged, row.Validity, row.Spread, row.Messages)
	}
	fmt.Fprintf(&b, "  all passed: %v\n", r.AllPassed())
	return b.String()
}

// sweepCase is one prepared independent run: the declarative scenario plus
// the row metadata, generated up front by the single-threaded candidate
// phase so the shared rng stream is consumed in a fixed order no matter how
// the runs are later scheduled. The scenario's graph is carried as a
// "random:<n>:<p>:<seed>" spec, so every sweep cell is individually
// serializable and replayable via `abacsim -scenario`.
type sweepCase struct {
	scenario  repro.Scenario
	adversary string
	n, m      int
}

// sweepBehaviors are the Byzantine behaviors the sweep samples from, as
// declarative fault specs — including the registry's composable strategies
// (delayed equivocation, targeted split values, replay, and a composed
// crash+noise adversary).
var sweepBehaviors = []struct {
	name  string
	fault repro.FaultSpec
}{
	{"silent", repro.FaultSpec{Kind: "silent"}},
	{"extreme", repro.FaultSpec{Kind: "extreme", Params: map[string]float64{"value": 1e7}}},
	{"tamper", repro.FaultSpec{Kind: "tamper", Params: map[string]float64{"delta": 3}}},
	{"noise", repro.FaultSpec{Kind: "noise", Params: map[string]float64{"amp": 25}}},
	{"delayedequiv", repro.FaultSpec{Kind: "delayedequiv", Params: map[string]float64{"step": 1.5, "after": 4}}},
	{"split", repro.FaultSpec{Kind: "split", Params: map[string]float64{"lo": -100, "hi": 100, "pivot": 2}}},
	{"replay", repro.FaultSpec{Kind: "replay", Params: map[string]float64{"prob": 0.5}}},
	{"crash+noise", repro.FaultSpec{Kind: "crash", Params: map[string]float64{"after": 15, "finalSends": 2},
		Compose: []repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 40}}}}},
}

// generateSweepCases is the sequential phase: it draws random digraphs,
// keeps those satisfying 3-reach within the path budget, and attaches a
// pseudo-randomly chosen Byzantine behavior at a pseudo-random node.
func generateSweepCases(count int, seed int64, rep *SweepReport) []sweepCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []sweepCase
	for len(cases) < count && rep.Candidates < 50*count {
		rep.Candidates++
		gseed := seed + int64(rep.Candidates)
		n := 5 + rng.Intn(2)
		p := 0.55 + 0.1*rng.Float64()
		g := graph.RandomDigraph(n, p, gseed)
		if ok, _ := cond.Check3Reach(g, 1); !ok {
			continue
		}
		// Keep the flooding affordable: skip graphs whose redundant path
		// count at node 0 exceeds a small budget.
		if _, err := g.CountRedundantPathsTo(0, graph.EmptySet, 30_000); err != nil {
			continue
		}
		rep.Satisfying++

		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64() * 4
		}
		// The draw order (inputs, badNode, behavior) is part of the sweep's
		// seeded identity — do not reorder.
		badNode := rng.Intn(n)
		behavior := sweepBehaviors[rng.Intn(len(sweepBehaviors))]
		fault := behavior.fault
		fault.Node = badNode
		cases = append(cases, sweepCase{
			scenario: repro.Scenario{
				Name: fmt.Sprintf("sweep-%d", gseed),
				Graph: "random:" + strconv.Itoa(n) + ":" +
					strconv.FormatFloat(p, 'g', -1, 64) + ":" + strconv.FormatInt(gseed, 10),
				Protocol: "bw",
				Inputs:   inputs,
				F:        1, K: 4, Eps: 0.25, Seed: gseed,
				Faults: []repro.FaultSpec{fault},
			},
			adversary: behavior.name,
			n:         n, m: g.M(),
		})
	}
	return cases
}

// runSweepCase is the execution phase for one case; cases are independent,
// so these run in parallel.
func runSweepCase(c sweepCase) (SweepRow, error) {
	out, err := c.scenario.Run()
	if err != nil {
		return SweepRow{}, err
	}
	return SweepRow{
		Seed: c.scenario.Seed, N: c.n, M: c.m,
		Adversary: c.adversary,
		Converged: out.Converged, Validity: out.ValidityOK,
		Spread: out.Spread, Messages: out.MessagesSent,
	}, nil
}

// RunSweepExec runs the generality sweep over the given number of workers
// (< 1 means one per CPU, 1 runs sequentially). Candidate generation is sequential (so the rng
// stream, and therefore the chosen graphs, inputs and fault patterns, are
// identical whatever the worker count); the independent BW executions fan
// across the worker pool; rows are reported in candidate order. The report
// is byte-identical for every worker count. Cancelling
// ctx stops the sweep between runs and surfaces ctx.Err().
func RunSweepExec(ctx context.Context, count int, seed int64, workers int) (SweepReport, error) {
	var rep SweepReport
	cases := generateSweepCases(count, seed, &rep)
	rows, err := par.Map(ctx, workers, len(cases), func(i int) (SweepRow, error) {
		return runSweepCase(cases[i])
	})
	if err != nil {
		return rep, err
	}
	rep.Rows = rows
	return rep, nil
}
