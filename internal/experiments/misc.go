package experiments

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/adversary"
	"repro/internal/cond"
	"repro/internal/graph"
)

// NecessityReport is experiment E7 (Theorem 18).
type NecessityReport struct {
	Graph    string
	F        int
	Result   *adversary.NecessityResult
	Violated bool
}

// Render prints the report.
func (r NecessityReport) Render() string {
	var b strings.Builder
	b.WriteString("E7 / Theorem 18 — necessity of 3-reach (indistinguishability construction)\n")
	fmt.Fprintf(&b, "  graph=%s f=%d\n", r.Graph, r.F)
	if r.Result != nil {
		fmt.Fprintf(&b, "  witness: %s\n", r.Result.Witness.String())
		fmt.Fprintf(&b, "  L=%s R=%s stitching-structure=%v\n", r.Result.L, r.Result.R, r.Result.StructureOK)
		fmt.Fprintf(&b, "  e1: v=%d outputs %.4g; e2: u=%d outputs %.4g; spread=%.4g eps=%.4g\n",
			r.Result.Witness.V, r.Result.VOutput, r.Result.Witness.U, r.Result.UOutput,
			r.Result.Spread, r.Result.Eps)
	}
	fmt.Fprintf(&b, "  convergence violated: %v\n", r.Violated)
	return b.String()
}

// RunNecessity produces the E7 report on K3 (n = 3f for f = 1).
func RunNecessity(seed int64) (NecessityReport, error) {
	g := graph.Clique(3)
	rep := NecessityReport{Graph: g.Name(), F: 1}
	res, err := adversary.RunNecessity(g, 1, 1, 0.25, seed)
	if err != nil {
		return rep, err
	}
	rep.Result = res
	rep.Violated = res.Violated()
	return rep, nil
}

// KReachRow is one row of the E10 hierarchy table.
type KReachRow struct {
	Graph string
	K     int
	F     int
	Holds bool
	Want  bool
}

// KReachReport aggregates E10 (the Appendix A k-reach family).
type KReachReport struct {
	Rows []KReachRow
}

// AllMatch reports whether every row matched its expectation.
func (r KReachReport) AllMatch() bool {
	for _, row := range r.Rows {
		if row.Holds != row.Want {
			return false
		}
	}
	return true
}

// Render prints the table.
func (r KReachReport) Render() string {
	var b strings.Builder
	b.WriteString("E10 / Appendix A — k-reach hierarchy (cliques: k-reach ⟺ n > k·f)\n")
	fmt.Fprintf(&b, "  %-10s %-3s %-3s %-7s %-7s\n", "graph", "k", "f", "holds", "want")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-3d %-3d %-7v %-7v\n", row.Graph, row.K, row.F, row.Holds, row.Want)
	}
	fmt.Fprintf(&b, "  all match: %v\n", r.AllMatch())
	return b.String()
}

// RunKReach produces the E10 report.
func RunKReach() KReachReport {
	var rep KReachReport
	for _, n := range []int{2, 3, 4, 5, 6} {
		g := graph.Clique(n)
		for k := 2; k <= 5; k++ {
			holds, _ := cond.CheckKReach(g, k, 1)
			rep.Rows = append(rep.Rows, KReachRow{
				Graph: g.Name(), K: k, F: 1, Holds: holds, Want: n > k,
			})
		}
	}
	// Directed separations: the cycle satisfies 1-reach but not 2-reach for
	// f=1; the wheel satisfies 3-reach but not 4-reach.
	cyc := graph.DirectedCycle(5)
	h1, _ := cond.Check1Reach(cyc, 1)
	h2, _ := cond.Check2Reach(cyc, 1)
	rep.Rows = append(rep.Rows,
		KReachRow{Graph: cyc.Name(), K: 1, F: 1, Holds: h1, Want: true},
		KReachRow{Graph: cyc.Name(), K: 2, F: 1, Holds: h2, Want: false},
	)
	// The wheel satisfies 4-reach for f=1 (removing any two nodes leaves it
	// connected, so reach sets are 3-of-5 subsets and always intersect) but
	// fails 5-reach (three removals per side can isolate disjoint rim
	// pairs).
	wheel := graph.Fig1a()
	h3, _ := cond.Check3Reach(wheel, 1)
	h4, _ := cond.CheckKReach(wheel, 4, 1)
	h5, _ := cond.CheckKReach(wheel, 5, 1)
	rep.Rows = append(rep.Rows,
		KReachRow{Graph: wheel.Name(), K: 3, F: 1, Holds: h3, Want: true},
		KReachRow{Graph: wheel.Name(), K: 4, F: 1, Holds: h4, Want: true},
		KReachRow{Graph: wheel.Name(), K: 5, F: 1, Holds: h5, Want: false},
	)
	return rep
}

// StructureReport aggregates E11 (Theorems 5 and 12).
type StructureReport struct {
	Rows []StructureRow
}

// StructureRow is one graph's structural verification.
type StructureRow struct {
	Graph   string
	F       int
	T5Pairs int
	T5OK    bool
	T12OK   bool
	Failure string
}

// AllOK reports whether all graphs passed.
func (r StructureReport) AllOK() bool {
	for _, row := range r.Rows {
		if !row.T5OK || !row.T12OK {
			return false
		}
	}
	return true
}

// Render prints the table.
func (r StructureReport) Render() string {
	var b strings.Builder
	b.WriteString("E11 / Theorems 5 & 12 — source-component structure on 3-reach graphs\n")
	fmt.Fprintf(&b, "  %-14s %-3s %-9s %-6s %-6s %s\n", "graph", "f", "T5 pairs", "T5", "T12", "failure")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-3d %-9d %-6v %-6v %s\n",
			row.Graph, row.F, row.T5Pairs, row.T5OK, row.T12OK, row.Failure)
	}
	return b.String()
}

// RunStructure produces the E11 report.
func RunStructure() StructureReport {
	var rep StructureReport
	cases := []struct {
		g *graph.Graph
		f int
	}{
		{graph.Fig1a(), 1},
		{graph.Fig1bAnalog(), 1},
		{graph.Clique(4), 1},
		{graph.Clique(7), 2},
		{graph.Circulant(7, 1, 2, 3), 1},
	}
	for _, tc := range cases {
		if ok, _ := cond.Check3Reach(tc.g, tc.f); !ok {
			rep.Rows = append(rep.Rows, StructureRow{
				Graph: tc.g.Name(), F: tc.f, Failure: "graph does not satisfy 3-reach (skipped)",
			})
			continue
		}
		t5 := cond.CheckTheorem5(tc.g, tc.f)
		t12 := cond.CheckTheorem12(tc.g, tc.f)
		row := StructureRow{
			Graph: tc.g.Name(), F: tc.f,
			T5Pairs: t5.PairsChecked, T5OK: t5.Ok(), T12OK: t12.Ok(),
		}
		if !t5.Ok() {
			row.Failure = t5.Failure
		} else if !t12.Ok() {
			row.Failure = t12.Failure
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// ScalingRow is one point of the E12 cost study.
type ScalingRow struct {
	Graph     string
	N         int
	F         int
	Threads   int
	Redundant int // redundant paths into node 0
	Messages  int
	Converged bool
}

// ScalingReport aggregates E12.
type ScalingReport struct {
	Rows []ScalingRow
}

// Render prints the table.
func (r ScalingReport) Render() string {
	var b strings.Builder
	b.WriteString("E12 / cost growth — BW on sparse circulant 3-reach graphs (f=1)\n")
	fmt.Fprintf(&b, "  %-14s %-4s %-3s %-8s %-10s %-10s %-9s\n", "graph", "n", "f", "threads", "redPaths", "messages", "converged")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-4d %-3d %-8d %-10d %-10d %-9v\n",
			row.Graph, row.N, row.F, row.Threads, row.Redundant, row.Messages, row.Converged)
	}
	b.WriteString("  threads grow with C(n-1,<=f); messages with the redundant path count.\n")
	return b.String()
}

// RunScaling produces the E12 report.
func RunScaling(seed int64) (ScalingReport, error) {
	var rep ScalingReport
	for _, n := range []int{5, 6, 7, 8} {
		g := graph.Circulant(n, 1, 2, 3)
		if ok, _ := cond.Check3Reach(g, 1); !ok {
			continue
		}
		red, err := g.CountRedundantPathsTo(0, graph.EmptySet, 0)
		if err != nil {
			return rep, err
		}
		out, err := repro.Scenario{
			Name:  fmt.Sprintf("scaling-n%d", n),
			Graph: fmt.Sprintf("circulant:%d:1,2,3", n), Protocol: "bw",
			InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 3},
			F:        1, K: 2, Eps: 0.25, Seed: seed,
		}.Run()
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, ScalingRow{
			Graph: g.Name(), N: n, F: 1,
			Threads:   graph.CountSubsets(n-1, 1),
			Redundant: red,
			Messages:  out.MessagesSent,
			Converged: out.Converged && out.ValidityOK,
		})
	}
	return rep, nil
}
