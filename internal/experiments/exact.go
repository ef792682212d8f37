package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/par"
)

// Experiment E15 exercises the exact-consensus tier (aba, acs) the way E13
// exercises the approximate tier: a ladder of graph rungs crossed with the
// full registered adversary matrix — every fault kind with its default
// params on all f nodes at once, a composed crash+noise cell, and a
// link-fault cell. Exact consensus has no ε slack, so each non-skipped
// rung must decide with spread exactly zero, stay within the honest input
// range, and (for acs) agree on a subset of at least n−f origins — also
// in the rows where the f nodes run the silent or equivocate strategies.
//
// The exact tier requires a complete communication graph (its thresholds
// assume all-to-all links), so the ladder runs the clique family plus the
// k-out-regular family at k = n−1 — complete by construction, a positive
// control that family specs route through the ladder — and reports the
// expander family as explicitly skipped: d < n/2 means an expander is
// never complete.

// ExactRow is one executed cell of E15.
type ExactRow struct {
	Name      string
	Protocol  string
	Family    string
	N         int
	F         int
	Adversary string
	Steps     int
	Messages  int
	Ms        float64
	Decided   bool
	Converged bool
	Validity  bool
	// Subset is the smallest agreed-subset size across honest nodes (acs
	// rows only; 0 for scalar-decision protocols).
	Subset int
}

// ExactReport aggregates experiment E15.
type ExactReport struct {
	Rows []ExactRow
	// Skipped lists rungs deliberately not run, with reasons (no silent
	// caps).
	Skipped []string
}

// AllPassed reports whether every executed cell met the exact tier's
// guarantees: decided, converged (zero spread), valid, and for acs a
// subset of at least n−f.
func (r ExactReport) AllPassed() bool {
	for _, row := range r.Rows {
		if !row.Decided || !row.Converged || !row.Validity {
			return false
		}
		if row.Protocol == "acs" && row.Subset < row.N-row.F {
			return false
		}
	}
	return true
}

// BenchRuns renders the report as benchtables -json cells.
func (r ExactReport) BenchRuns() []BenchRun {
	runs := make([]BenchRun, 0, len(r.Rows))
	for _, row := range r.Rows {
		runs = append(runs, BenchRun{
			Name:      row.Name,
			Runtime:   "sim",
			Ms:        row.Ms,
			Steps:     row.Steps,
			Sends:     row.Messages,
			Decided:   row.Decided,
			Converged: row.Converged,
			Valid:     row.Validity,
			Protocol:  row.Protocol,
			Family:    row.Family,
			N:         row.N,
			F:         row.F,
			Adversary: row.Adversary,
			Subset:    row.Subset,
		})
	}
	return runs
}

// Render prints the study.
func (r ExactReport) Render() string {
	var b strings.Builder
	b.WriteString("E15 / exact tier — aba and acs across complete-graph families x the full adversary matrix (f nodes per cell)\n")
	fmt.Fprintf(&b, "  %-9s %-9s %-4s %-3s %-18s %8s %9s %9s %-8s %-9s %-6s %s\n",
		"protocol", "family", "n", "f", "adversary", "steps", "messages", "ms", "decided", "converged", "valid", "subset")
	for _, row := range r.Rows {
		subset := "-"
		if row.Protocol == "acs" {
			subset = fmt.Sprintf("%d/%d", row.Subset, row.N)
		}
		fmt.Fprintf(&b, "  %-9s %-9s %-4d %-3d %-18s %8d %9d %9.1f %-8v %-9v %-6v %s\n",
			row.Protocol, row.Family, row.N, row.F, row.Adversary,
			row.Steps, row.Messages, row.Ms, row.Decided, row.Converged, row.Validity, subset)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  skipped: %s\n", s)
	}
	fmt.Fprintf(&b, "  all passed: %v\n", r.AllPassed())
	return b.String()
}

// exactRungs is the graph ladder: the clique family at three orders plus
// the complete k-out-regular control.
var exactRungs = []struct {
	spec   string
	family string
	n, f   int
}{
	{"clique:4", "clique", 4, 1},
	{"clique:7", "clique", 7, 2},
	{"clique:10", "clique", 10, 3},
	{"kregular:10:9:1", "kregular", 10, 3},
}

// exactAdversaryCell is one adversary configuration of the matrix.
type exactAdversaryCell struct {
	name   string
	faults []repro.FaultSpec
	links  []repro.LinkFault
}

// exactAdversaries builds the matrix's adversary axis for a rung of order
// n with fault bound f: the honest baseline, every registered fault kind
// on the last f nodes simultaneously, the composed crash+noise cell, and
// the silent+link-faults cell (duplication and delay only — unconditional
// drops could starve a quorum, which no Byzantine node is allowed to do).
func exactAdversaries(n, f int) []exactAdversaryCell {
	lastF := func(kind string, params map[string]float64, compose []repro.Mutation) []repro.FaultSpec {
		specs := make([]repro.FaultSpec, 0, f)
		for i := 0; i < f; i++ {
			specs = append(specs, repro.FaultSpec{Node: n - 1 - i, Kind: kind, Params: params, Compose: compose})
		}
		return specs
	}
	cells := []exactAdversaryCell{{name: "none"}}
	for _, kind := range repro.FaultKinds() {
		cells = append(cells, exactAdversaryCell{name: kind, faults: lastF(kind, nil, nil)})
	}
	cells = append(cells, exactAdversaryCell{
		name: "crash+noise",
		faults: lastF("crash", map[string]float64{"after": 20, "finalSends": 2},
			[]repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 25}}}),
	})
	cells = append(cells, exactAdversaryCell{
		name:   "silent+linkfaults",
		faults: lastF("silent", nil, nil),
		links: []repro.LinkFault{
			{Kind: "duplicate", Edges: [][2]int{{0, 1}}, Params: map[string]float64{"prob": 0.5}},
			{Kind: "delay", Edges: [][2]int{{1, 2}}, Params: map[string]float64{"prob": 0.5, "amount": 7}},
		},
	})
	return cells
}

// exactCase is one prepared scenario cell of E15.
type exactCase struct {
	s         repro.Scenario
	family    string
	n, f      int
	adversary string
}

// exactCases builds every scenario cell. Inputs come from the mod
// generator: aba proposes bits (mod 2), acs values in [0, 2] (mod 3) — in
// both cases the faulty nodes' inputs fall inside the honest range, so
// validity must hold whether or not a faulty origin's broadcast lands in
// the agreed subset.
func exactCases(seed int64) ([]exactCase, []string) {
	var cases []exactCase
	var skipped []string
	for _, protocol := range []string{"aba", "acs"} {
		mod, k := 2, 1.0
		if protocol == "acs" {
			mod, k = 3, 2.0
		}
		for ri, rung := range exactRungs {
			for ai, adv := range exactAdversaries(rung.n, rung.f) {
				s := repro.Scenario{
					Name:     fmt.Sprintf("exact-%s-%s-%d-%s", protocol, rung.family, rung.n, adv.name),
					Graph:    rung.spec,
					Protocol: protocol,
					InputGen: &repro.InputGenSpec{Kind: "mod", Mod: mod},
					F:        rung.f, K: k, Eps: 0.25,
					Seed:       seed + int64(1000*ri+ai),
					Faults:     adv.faults,
					LinkFaults: adv.links,
				}
				cases = append(cases, exactCase{
					s: s, family: rung.family, n: rung.n, f: rung.f, adversary: adv.name,
				})
			}
		}
		skipped = append(skipped, fmt.Sprintf(
			"exact-%s-expander: the exact tier requires a complete graph; an expander (d < n/2) is never complete — no expander rung can run", protocol))
	}
	return cases, skipped
}

// RunExactExec produces the full E15 report over the given number of
// workers (< 1 means one per CPU, 1 runs sequentially). Cells
// are independent seeded scenarios, so the acceptance facts are identical
// for every worker count; only the per-cell wall times move.
func RunExactExec(ctx context.Context, seed int64, workers int) (ExactReport, error) {
	cases, skipped := exactCases(seed)
	rows, err := par.Map(ctx, workers, len(cases), func(i int) (ExactRow, error) {
		c := cases[i]
		start := time.Now()
		out, err := c.s.Run()
		if err != nil {
			return ExactRow{}, fmt.Errorf("%s: %w", c.s.Name, err)
		}
		subset := 0
		if c.s.Protocol == "acs" {
			for _, vec := range out.Vectors {
				if subset == 0 || len(vec) < subset {
					subset = len(vec)
				}
			}
		}
		return ExactRow{
			Name:      c.s.Name,
			Protocol:  c.s.Protocol,
			Family:    c.family,
			N:         c.n,
			F:         c.f,
			Adversary: c.adversary,
			Steps:     out.Steps,
			Messages:  out.MessagesSent,
			Ms:        float64(time.Since(start).Microseconds()) / 1000,
			Decided:   out.Decided,
			Converged: out.Converged,
			Validity:  out.ValidityOK,
			Subset:    subset,
		}, nil
	})
	if err != nil {
		return ExactReport{}, err
	}
	return ExactReport{Rows: rows, Skipped: skipped}, nil
}
