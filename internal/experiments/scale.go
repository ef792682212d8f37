package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/graph"
)

// ScaleCase is one prepared cell of the E14 scale-out study: a declarative
// scenario plus the runtimes it runs on.
type ScaleCase struct {
	Scenario repro.Scenario
	Family   string   // graph family label ("cycle", "torus", "expander")
	N        int      // graph order
	F        int      // effective fault bound (0 for the FZero rows)
	Runtimes []string // runtimes this cell runs on ("sim", "loopback")
	// SkipNote explains any runtime deliberately absent from Runtimes, so
	// every consumer reports the same reason (no silent caps).
	SkipNote string
}

// ScaleSizes is the E14 ladder of graph orders. The rungs above the
// default build's node limit (graph.MaxNodes = 1024) only materialize under
// the graph4096 build tag; ScaleCases drops them with an explicit skip note
// otherwise.
var ScaleSizes = []int{8, 32, 128, 512, 1024, 2048, 4096}

// scaleLoopbackMaxBW bounds the BW loopback rows. Paths travel as entry
// ids, but on the cycle the COMPLETE flood is ~n² frames of O(n) entries
// each (261 632 at n = 512), and a live fleet holds much of it in flight
// at once: scale-bw-cycle-512 on loopback took 12.8 s and a 7.6 GB peak
// RSS on a 2-CPU, 8 GB host, against 1.4 s on the simulator. Larger BW
// cells run on the simulator only and the report says so — no silent
// truncation.
const scaleLoopbackMaxBW = 128

// scaleBWMaxN bounds the BW simulator rows: the n=1024 cycle rung already
// costs minutes of single-core delivery (EXPERIMENTS.md E14), and the
// redundant-path machinery grows superlinearly past it. The 2048/4096 rungs
// run the iterative baseline only, with an explicit skip note.
const scaleBWMaxN = 1024

// scaleTorusDims factors the ladder sizes into torus sides.
var scaleTorusDims = map[int][2]int{
	8: {2, 4}, 32: {4, 8}, 128: {8, 16}, 512: {16, 32}, 1024: {32, 32},
	2048: {32, 64}, 4096: {64, 64},
}

// ScaleCases builds the E14 ladder: Algorithm BW on the directed cycle (the
// path-sparse family — every other named family's redundant-path count
// explodes past the protocol budget long before n = 1024) with an explicit
// zero fault bound, and the local iterative baseline on the torus and
// expander families with f = 1. maxN caps the ladder (0 = the full 1024).
func ScaleCases(seed int64, maxN int) []ScaleCase {
	var cases []ScaleCase
	for _, n := range ScaleSizes {
		if maxN > 0 && n > maxN {
			continue
		}
		if n > graph.MaxNodes {
			// A rung above the build dimension is reported, not silently
			// dropped: a case with no runtimes carries only the note.
			cases = append(cases, ScaleCase{
				Family: "-", N: n,
				SkipNote: fmt.Sprintf("n=%d rung: exceeds this build's node limit (graph.MaxNodes=%d); rebuild with -tags graph4096", n, graph.MaxNodes),
			})
			continue
		}
		if n <= scaleBWMaxN {
			bwRuntimes := []string{"sim", "loopback"}
			bwSkip := ""
			if n > scaleLoopbackMaxBW {
				bwRuntimes = []string{"sim"}
				bwSkip = fmt.Sprintf("scale-bw-cycle-%d on loopback: a live fleet holds ~n² COMPLETE frames of O(n) entries in flight (n=512: 7.6 GB peak RSS); n > %d is simulator-only", n, scaleLoopbackMaxBW)
			}
			cases = append(cases, ScaleCase{
				Scenario: repro.Scenario{
					Name:     fmt.Sprintf("scale-bw-cycle-%d", n),
					Graph:    fmt.Sprintf("cycle:%d", n),
					Protocol: "bw",
					InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 2},
					F:        repro.FZero, K: 1, Eps: 0.6, Seed: seed,
				},
				Family: "cycle", N: n, F: 0, Runtimes: bwRuntimes, SkipNote: bwSkip,
			})
		} else {
			cases = append(cases, ScaleCase{
				Family: "cycle", N: n,
				SkipNote: fmt.Sprintf("scale-bw-cycle-%d: BW's redundant-path machinery is past its seconds-to-minutes budget above n=%d; the %d rung runs the iterative baseline only", n, scaleBWMaxN, n),
			})
		}
		// Above the default dimension the iterative rows run simulator-only:
		// a live loopback cluster of thousands of goroutine nodes measures
		// the host's scheduler, not the protocol.
		iterRuntimes := []string{"sim", "loopback"}
		iterSkip := func(family string) string { return "" }
		if n > 1024 {
			iterRuntimes = []string{"sim"}
			iterSkip = func(family string) string {
				return fmt.Sprintf("scale-iter-%s-%d on loopback: n > 1024 cluster rows measure host scheduling, not the protocol; simulator-only", family, n)
			}
		}
		d := scaleTorusDims[n]
		cases = append(cases, ScaleCase{
			Scenario: repro.Scenario{
				Name:     fmt.Sprintf("scale-iter-torus-%d", n),
				Graph:    fmt.Sprintf("torus:%d:%d", d[0], d[1]),
				Protocol: "iterative",
				InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 4},
				F:        1, K: 3, Eps: 0.25, Seed: seed,
			},
			Family: "torus", N: n, F: 1, Runtimes: iterRuntimes, SkipNote: iterSkip("torus"),
		})
		cases = append(cases, ScaleCase{
			Scenario: repro.Scenario{
				Name:     fmt.Sprintf("scale-iter-expander-%d", n),
				Graph:    fmt.Sprintf("expander:%d:3:%d", n, seed),
				Protocol: "iterative",
				InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 4},
				F:        1, K: 3, Eps: 0.25, Seed: seed,
			},
			Family: "expander", N: n, F: 1, Runtimes: iterRuntimes, SkipNote: iterSkip("expander"),
		})
	}
	return cases
}

// ScaleRow is one executed cell of E14.
type ScaleRow struct {
	Name      string
	Protocol  string
	Family    string
	N         int
	F         int
	Runtime   string
	Steps     int
	Messages  int
	Ms        float64
	Decided   bool
	Converged bool
	Valid     bool
	CertNote  string
}

// ScaleReport aggregates experiment E14: how the delivery core and the
// protocols behave as the graph order grows to 1024 — the axis none of the
// paper-reproduction experiments exercise.
type ScaleReport struct {
	Rows []ScaleRow
	// Skipped lists cells deliberately not run, with reasons (no silent
	// caps).
	Skipped []string
}

// BenchRuns renders the report as benchtables -json cells.
func (r ScaleReport) BenchRuns() []BenchRun {
	runs := make([]BenchRun, 0, len(r.Rows))
	for _, row := range r.Rows {
		runs = append(runs, BenchRun{
			Name:      row.Name,
			Runtime:   row.Runtime,
			Ms:        row.Ms,
			Steps:     row.Steps,
			Sends:     row.Messages,
			Decided:   row.Decided,
			Converged: row.Converged,
			Valid:     row.Valid,
			Protocol:  row.Protocol,
			Family:    row.Family,
			N:         row.N,
			F:         row.F,
		})
	}
	return runs
}

// Render prints the study.
func (r ScaleReport) Render() string {
	var b strings.Builder
	b.WriteString("E14 / scale-out — BW and iterative from n=8 up to the build's node limit (n=4096 under -tags graph4096)\n")
	fmt.Fprintf(&b, "  %-10s %-9s %-5s %-3s %-9s %10s %10s %12s %-8s %-9s %s\n",
		"protocol", "family", "n", "f", "runtime", "steps", "messages", "ms", "decided", "converged", "3-reach")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-9s %-5d %-3d %-9s %10d %10d %12.1f %-8v %-9v %s\n",
			row.Protocol, row.Family, row.N, row.F, row.Runtime,
			row.Steps, row.Messages, row.Ms, row.Decided, row.Converged, row.CertNote)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  skipped: %s\n", s)
	}
	return b.String()
}

// certNote certifies the cell's graph, or carries CheckConditions' explicit
// skip note when the cell is past CertLimit's budget of removal sets.
func certNote(spec string, f int) string {
	g, err := repro.NamedGraph(spec)
	if err != nil {
		return "graph error: " + err.Error()
	}
	rep := repro.CheckConditions(g, f)
	if !rep.Certified {
		return rep.Note
	}
	return fmt.Sprintf("3-reach=%v", rep.ThreeReach)
}

// RunScaleExec runs the ladder up to maxN (0 = all sizes). Cells run
// sequentially — each large cell saturates memory bandwidth on its own, and
// wall-clock per cell is itself a reported measurement, so fanning cells
// across workers would corrupt the numbers.
func RunScaleExec(ctx context.Context, seed int64, maxN int) (ScaleReport, error) {
	var rep ScaleReport
	for _, c := range ScaleCases(seed, maxN) {
		// Note-only cases (rungs above the build dimension, BW rows past the
		// budget) carry no scenario to certify or run.
		note := ""
		if len(c.Runtimes) > 0 {
			note = certNote(c.Scenario.Graph, c.F)
		}
		for _, runtime := range c.Runtimes {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			s := c.Scenario
			row := ScaleRow{
				Name: s.Name, Protocol: s.Protocol, Family: c.Family, N: c.N, F: c.F,
				Runtime: runtime, CertNote: note,
			}
			start := time.Now()
			out, err := s.RunOn(ctx, runtime)
			if err != nil {
				return rep, fmt.Errorf("%s on %s: %w", s.Name, runtime, err)
			}
			row.Ms = float64(time.Since(start).Microseconds()) / 1000
			row.Steps, row.Messages = out.Steps, out.MessagesSent
			row.Decided, row.Converged, row.Valid = out.Decided, out.Converged, out.ValidityOK
			rep.Rows = append(rep.Rows, row)
		}
		if c.SkipNote != "" {
			rep.Skipped = append(rep.Skipped, c.SkipNote)
		}
	}
	return rep, nil
}
