package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro"
	"repro/internal/par"
)

// Suite is one reproduced claim: the runs it makes, the facts it states
// and what it deliberately leaves out.
type Suite struct {
	Name  string // benchtables selection name
	Title string
	Cells []Cell
	// Checks states the facts that are not one run. It runs after the
	// cells and may read their rows, in cell order.
	Checks func(rows []Row) []Check
	// Notes names what the suite deliberately does not run, and why (no
	// silent caps).
	Notes []string
	// Sequential runs the cells one at a time whatever the worker count:
	// wall time per cell is the measurement, and the rows show it.
	Sequential bool
	// Annotate, when set, states a fact about each executed cell that is
	// not part of its claim (E14: its graph's certification verdict). It
	// is called once per row, in cell order, after the cells ran.
	Annotate func(Cell) string
}

// Cell is one run of a suite and the outcome its claim states.
type Cell struct {
	Label    string
	Scenario repro.Scenario
	Runtime  string // "" = the simulator
	Expect   Expect
}

// Outcome is what a claim says a run does.
type Outcome uint8

const (
	// Converges: every honest node decides, within ε of the others and
	// inside the honest input range.
	Converges Outcome = iota
	// DecidesOnly: every honest node decides; ε-agreement is not claimed.
	DecidesOnly
	// Stalls: the run does not reach ε-agreement.
	Stalls
)

// Expect is a cell's claim.
type Expect struct {
	Outcome Outcome
	// Subset > 0 bounds the agreed subset of a vector-decision protocol
	// (acs) from below; ExactSubset makes the bound exact.
	Subset      int
	ExactSubset bool
}

func (e Expect) String() string {
	s := [...]string{"converges", "decides", "stalls"}[e.Outcome]
	switch {
	case e.ExactSubset:
		s += fmt.Sprintf(", subset=%d", e.Subset)
	case e.Subset > 0:
		s += fmt.Sprintf(", subset>=%d", e.Subset)
	}
	return s
}

// miss says how a run misses the claim; "" when it meets it.
func (e Expect) miss(r BenchRun) string {
	switch {
	case e.Outcome == Converges && !(r.Converged && r.Valid):
		return fmt.Sprintf("did not converge (decided=%v converged=%v valid=%v spread=%.4g)", r.Decided, r.Converged, r.Valid, r.Spread)
	case e.Outcome == DecidesOnly && !r.Decided:
		return "did not decide"
	case e.Outcome == Stalls && r.Converged:
		return fmt.Sprintf("converged (spread %.4g) where the claim is a stall", r.Spread)
	case e.ExactSubset && r.Subset != e.Subset, r.Subset < e.Subset:
		return fmt.Sprintf("agreed subset %d, want %s", r.Subset, e)
	}
	return ""
}

// Check is a stated fact: it holds when Got prints as Want.
type Check struct {
	Name      string
	Got, Want any
}

// OK reports whether the fact holds.
func (c Check) OK() bool { return fmt.Sprint(c.Got) == fmt.Sprint(c.Want) }

// Row is one executed cell.
type Row struct {
	Cell   Cell
	Result *repro.Result
	BenchRun
}

// BenchRun is the one JSON row form of benchtables -json: an executed cell
// with its wall time and acceptance facts, or a per-suite timing (Name and
// Ms only).
type BenchRun struct {
	Name      string  `json:"name"`
	Label     string  `json:"label,omitempty"`
	Runtime   string  `json:"runtime,omitempty"`
	Ms        float64 `json:"ms"`
	Protocol  string  `json:"protocol,omitempty"`
	Graph     string  `json:"graph,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Sends     int     `json:"sends,omitempty"`
	Decided   bool    `json:"decided,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Valid     bool    `json:"valid,omitempty"`
	Spread    float64 `json:"spread,omitempty"`
	// Subset is the smallest agreed subset across honest nodes (acs only).
	Subset int `json:"subset,omitempty"`
	// Note is the suite's annotation of the cell (Suite.Annotate).
	Note string `json:"note,omitempty"`
	// Miss says how the run misses its cell's claim; empty when it meets it.
	Miss string `json:"miss,omitempty"`
}

// BenchReport is what benchtables -json writes: a sole selection's rows
// under "runs" with its notes under "skipped", or per-suite timings under
// "experiments" — never both. It is a report format for the claims, not a
// baseline for performance claims; those are bench/'s job (BENCHMARK.json).
type BenchReport struct {
	Suite string `json:"suite,omitempty"`
	// Workers is benchtables' process-wide -workers setting.
	Workers     int        `json:"workers,omitempty"`
	Seed        int64      `json:"seed"`
	Runs        []BenchRun `json:"runs,omitempty"`
	Experiments []BenchRun `json:"experiments,omitempty"`
	Skipped     []string   `json:"skipped,omitempty"`
}

// Report is an executed suite.
type Report struct {
	Suite  Suite
	Rows   []Row
	Checks []Check
}

// Run executes the cells over workers (< 1 means one per CPU, 1 runs
// sequentially; Sequential suites always run one at a time), then the
// checks. Rows come back in cell order and, wall times aside, are the same
// at every worker count. Cancelling ctx stops the suite between cells and
// surfaces ctx.Err().
func (s Suite) Run(ctx context.Context, workers int) (Report, error) {
	if s.Sequential {
		workers = 1
	}
	rows, err := par.Map(ctx, workers, len(s.Cells), func(i int) (Row, error) {
		c := s.Cells[i]
		runtime := c.Runtime
		if runtime == "" {
			runtime = repro.RuntimeSim
		}
		start := time.Now()
		out, err := c.Scenario.RunOn(ctx, runtime)
		if err != nil {
			return Row{}, fmt.Errorf("%s on %s: %w", c.Scenario.Name, runtime, err)
		}
		r := BenchRun{
			Name: c.Scenario.Name, Label: c.Label, Runtime: runtime,
			Ms:       float64(time.Since(start).Microseconds()) / 1000,
			Protocol: c.Scenario.Protocol, Graph: c.Scenario.Graph,
			Steps: out.Steps, Sends: out.MessagesSent,
			Decided: out.Decided, Converged: out.Converged, Valid: out.ValidityOK,
			Spread: out.Spread,
		}
		for _, vec := range out.Vectors {
			if r.Subset == 0 || len(vec) < r.Subset {
				r.Subset = len(vec)
			}
		}
		r.Miss = c.Expect.miss(r)
		return Row{Cell: c, Result: out, BenchRun: r}, nil
	})
	if err != nil {
		return Report{Suite: s}, err
	}
	if s.Annotate != nil {
		for i := range rows {
			if err := ctx.Err(); err != nil {
				return Report{Suite: s}, err
			}
			rows[i].Note = s.Annotate(rows[i].Cell)
		}
	}
	rep := Report{Suite: s, Rows: rows}
	if s.Checks != nil {
		rep.Checks = s.Checks(rows)
	}
	return rep, nil
}

// Failures names every cell and check that misses its claim; empty when
// the suite holds.
func (r Report) Failures() []string {
	var out []string
	for _, row := range r.Rows {
		if row.Miss != "" {
			out = append(out, fmt.Sprintf("%s: %s on %s: %s", r.Suite.Name, row.Label, row.Runtime, row.Miss))
		}
	}
	for _, c := range r.Checks {
		if !c.OK() {
			out = append(out, fmt.Sprintf("%s: %s: got %v, want %v", r.Suite.Name, c.Name, c.Got, c.Want))
		}
	}
	return out
}

// BenchRuns is the rows' JSON form.
func (r Report) BenchRuns() []BenchRun {
	runs := make([]BenchRun, len(r.Rows))
	for i, row := range r.Rows {
		runs[i] = row.BenchRun
	}
	return runs
}

// Render prints the suite: one line per row, then the checks, the notes and
// the verdict.
func (r Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Suite.Title + "\n")
	if len(r.Rows) > 0 {
		w := 4
		for _, row := range r.Rows {
			w = max(w, utf8.RuneCountInString(row.Label))
		}
		ms := ""
		if r.Suite.Sequential {
			ms = fmt.Sprintf(" %10s", "ms")
		}
		fmt.Fprintf(&b, "  %-*s %-8s %9s %9s%s %-10s %-7s %-9s %-5s %-20s %s\n", w, "cell", "runtime",
			"steps", "messages", ms, "spread", "decided", "converged", "valid", "expect", "verdict")
		for _, row := range r.Rows {
			if r.Suite.Sequential {
				ms = fmt.Sprintf(" %10.1f", row.Ms)
			}
			verdict := "ok"
			if row.Miss != "" {
				verdict = "MISS: " + row.Miss
			}
			if row.Subset > 0 {
				verdict += fmt.Sprintf(" subset=%d", row.Subset)
			}
			if row.Note != "" {
				verdict += " " + row.Note
			}
			fmt.Fprintf(&b, "  %-*s %-8s %9d %9d%s %-10.4g %-7v %-9v %-5v %-20s %s\n", w, row.Label, row.Runtime,
				row.Steps, row.Sends, ms, row.Spread, row.Decided, row.Converged, row.Valid, row.Cell.Expect, verdict)
		}
	}
	w := 0
	for _, c := range r.Checks {
		w = max(w, utf8.RuneCountInString(c.Name))
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK() {
			verdict = "MISS"
		}
		fmt.Fprintf(&b, "  check  %-*s  got %-6v want %-6v %s\n", w, c.Name, c.Got, c.Want, verdict)
	}
	for _, n := range r.Suite.Notes {
		fmt.Fprintf(&b, "  skipped: %s\n", n)
	}
	n := len(r.Rows) + len(r.Checks)
	fmt.Fprintf(&b, "  verdict: %d of %d cells and checks meet their claims\n", n-len(r.Failures()), n)
	return b.String()
}

// Catalog lists every suite in benchtables order; maxN caps the E14 ladder
// (0 = the build's node limit).
func Catalog(seed int64, maxN int) []Suite {
	return []Suite{
		table1(8, seed), table2(12, seed), fig1a(seed), fig1b(seed),
		sufficiency(seed), sweep(8, seed+1000), convergence(seed), necessity(seed),
		aadComparison(seed), iterativeAblation(seed), kreach(), structure(),
		crashCell(seed), scaling(seed), attackMatrix(seed), scale(seed, maxN), exact(seed),
	}
}
