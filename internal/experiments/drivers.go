package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro"
	"repro/internal/bw"
	"repro/internal/cond"
	"repro/internal/graph"
)

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

// RunFig1a produces the E3 report.
func RunFig1a(seed int64) (Fig1aReport, error) {
	g := graph.Fig1a()
	rep := Fig1aReport{N: g.N(), M: g.M(), Kappa: g.VertexConnectivity()}
	rep.ThreeReach, _ = cond.Check3Reach(g, 1)

	rep.MinimalEdge = true
	for _, e := range g.Edges() {
		if e[0] > e[1] {
			continue
		}
		c := g.Clone()
		c.RemoveEdge(e[0], e[1])
		c.RemoveEdge(e[1], e[0])
		if c.VertexConnectivity() > 2 {
			rep.MinimalEdge = false
		}
	}

	out, err := repro.Scenario{
		Name: "fig1a-bw", Graph: "fig1a", Protocol: "bw",
		Inputs: []float64{0, 4, 1, 3, 2},
		F:      1, K: 4, Eps: 0.25, Seed: seed,
		Faults: []repro.FaultSpec{{Node: 1, Kind: "extreme", Params: map[string]float64{"value": 1e6}}},
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.BWConverged = out.Converged && out.ValidityOK
	rep.BWSpread = out.Spread
	rep.BWMessages = out.MessagesSent
	return rep, nil
}

// RunFig1b produces the E4 report. The exhaustive f=2 check on the 14-node
// graph takes a few hundred milliseconds; the BW run uses the scaled analog
// (see DESIGN.md fidelity note 7).
func RunFig1b(seed int64) (Fig1bReport, error) {
	g := graph.Fig1b()
	rep := Fig1bReport{N: g.N(), M: g.M()}
	rep.ThreeReachF2, _ = cond.Check3Reach(g, 2)
	rep.DisjointVW = g.MaxDisjointPaths(0, 7, graph.EmptySet)
	rep.DisjointWV = g.MaxDisjointPaths(7, 0, graph.EmptySet)
	rep.RMTImpossible = rep.DisjointVW < 2*2+1
	broken := g.Clone()
	for i := 3; i < 7; i++ {
		broken.RemoveEdge(i+7, i)
	}
	ok, _ := cond.Check3Reach(broken, 2)
	rep.BridgeBreak = !ok

	out, err := repro.Scenario{
		Name: "fig1b-analog-bw", Graph: "fig1b-analog", Protocol: "bw",
		Inputs: []float64{0, 0.5, 1, 0.25, 0.75, 1, 0, 0.5},
		F:      1, K: 1, Eps: 0.25, Seed: seed,
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.AnalogConverged = out.Converged && out.ValidityOK
	rep.AnalogSpread = out.Spread
	rep.AnalogMessages = out.MessagesSent
	return rep, nil
}

// SufficiencyCase is one (graph, adversary) cell of the E5 matrix.
type SufficiencyCase struct {
	Graph     string
	Adversary string
	Converged bool
	Validity  bool
	Spread    float64
	Messages  int
}

// SufficiencyReport aggregates experiment E5 (Theorem 4's constructive
// side): BW achieves approximate consensus on 3-reach graphs under every
// implemented Byzantine behavior.
type SufficiencyReport struct {
	Cases []SufficiencyCase
}

// AllPassed reports whether every cell converged with validity.
func (r SufficiencyReport) AllPassed() bool {
	for _, c := range r.Cases {
		if !c.Converged || !c.Validity {
			return false
		}
	}
	return true
}

// Render prints the matrix.
func (r SufficiencyReport) Render() string {
	var b strings.Builder
	b.WriteString("E5 / Theorem 4 sufficiency — BW under Byzantine adversaries (3-reach graphs)\n")
	fmt.Fprintf(&b, "  %-14s %-12s %-10s %-9s %-10s %-9s\n", "graph", "adversary", "converged", "validity", "spread", "messages")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "  %-14s %-12s %-10v %-9v %-10.4g %-9d\n",
			c.Graph, c.Adversary, c.Converged, c.Validity, c.Spread, c.Messages)
	}
	fmt.Fprintf(&b, "  all passed: %v\n", r.AllPassed())
	return b.String()
}

// sufficiencyAdversaries are the E5 fault columns: node 1 exhibits each
// classic fault behavior (the empty kind is the honest control).
var sufficiencyAdversaries = []struct {
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

// RunSufficiency produces the E5 report.
func RunSufficiency(seed int64) (SufficiencyReport, error) {
	graphSpecs := []string{"clique:4", "clique:5", "fig1a"}

	var rep SufficiencyReport
	for _, spec := range graphSpecs {
		g, err := graph.Named(spec)
		if err != nil {
			return rep, err
		}
		inputs := make([]float64, g.N())
		for i := range inputs {
			inputs[i] = float64((i * 7) % 5)
		}
		for _, adv := range sufficiencyAdversaries {
			s := repro.Scenario{
				Name: spec + "-" + adv.name, Graph: spec, Protocol: "bw",
				Inputs: inputs,
				F:      1, K: 4, Eps: 0.25, Seed: seed + int64(len(rep.Cases)),
			}
			if adv.kind != "" {
				s.Faults = []repro.FaultSpec{{Node: 1, Kind: adv.kind, Params: adv.params}}
			}
			out, err := s.Run()
			if err != nil {
				return rep, err
			}
			rep.Cases = append(rep.Cases, SufficiencyCase{
				Graph:     g.Name(),
				Adversary: adv.name,
				Converged: out.Converged,
				Validity:  out.ValidityOK,
				Spread:    out.Spread,
				Messages:  out.MessagesSent,
			})
		}
	}
	return rep, nil
}

// ConvergenceReport is experiment E6: measured per-round contraction
// against the Lemma 15 bound.
type ConvergenceReport struct {
	Graph      string
	K, Eps     float64
	Rounds     int
	Spreads    []float64 // measured U[r] - µ[r]
	Bound      []float64 // K / 2^r
	Violations int
}

// Render prints the series.
func (r ConvergenceReport) Render() string {
	var b strings.Builder
	b.WriteString("E6 / Lemma 15 — per-round contraction (BW)\n")
	fmt.Fprintf(&b, "  graph=%s K=%g eps=%g rounds=%d\n", r.Graph, r.K, r.Eps, r.Rounds)
	fmt.Fprintf(&b, "  %-6s %-14s %-14s\n", "round", "measured", "bound K/2^r")
	for i := range r.Spreads {
		fmt.Fprintf(&b, "  %-6d %-14.6g %-14.6g\n", i+1, r.Spreads[i], r.Bound[i])
	}
	fmt.Fprintf(&b, "  bound violations: %d (expected 0)\n", r.Violations)
	return b.String()
}

// RunConvergence produces the E6 report on the Figure 1(a) graph with a
// Byzantine extreme-value injector.
func RunConvergence(seed int64) (ConvergenceReport, error) {
	k, eps := 8.0, 0.2
	rep := ConvergenceReport{Graph: "fig1a", K: k, Eps: eps, Rounds: bw.RoundsFor(k, eps)}
	out, err := repro.Scenario{
		Name: "fig1a-contraction", Graph: "fig1a", Protocol: "bw",
		Inputs: []float64{0, 8, 4, 6, 2},
		F:      1, K: k, Eps: eps, Seed: seed,
		Faults: []repro.FaultSpec{{Node: 3, Kind: "extreme", Params: map[string]float64{"value": 1e9}}},
	}.Run()
	if err != nil {
		return rep, err
	}
	bound := k
	for r := 0; r < rep.Rounds; r++ {
		bound /= 2
		rep.Spreads = append(rep.Spreads, spreadOf(out.Histories, r))
		rep.Bound = append(rep.Bound, bound)
		if rep.Spreads[r] > bound+1e-9 {
			rep.Violations++
		}
	}
	return rep, nil
}

// AADComparison is experiment E8: AAD vs BW on cliques.
type AADComparison struct {
	N, F        int
	AADMessages int
	BWMessages  int
	AADSpread   float64
	BWSpread    float64
	BothOK      bool
}

// AADReport aggregates E8.
type AADReport struct {
	Rows []AADComparison
}

// Render prints the comparison.
func (r AADReport) Render() string {
	var b strings.Builder
	b.WriteString("E8 / Abraham–Amit–Dolev baseline vs BW on cliques (f=1)\n")
	fmt.Fprintf(&b, "  %-4s %-4s %-12s %-12s %-12s %-12s %-6s\n", "n", "f", "aadMsgs", "bwMsgs", "aadSpread", "bwSpread", "ok")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-4d %-4d %-12d %-12d %-12.4g %-12.4g %-6v\n",
			row.N, row.F, row.AADMessages, row.BWMessages, row.AADSpread, row.BWSpread, row.BothOK)
	}
	b.WriteString("  BW pays a path-flooding overhead for directed-graph generality;\n")
	b.WriteString("  AAD exploits the clique's reliable broadcast.\n")
	return b.String()
}

// RunAADComparison produces the E8 report: the same clique, inputs,
// adversary and seed, run under both protocols by switching the scenario's
// Protocol name.
func RunAADComparison(seed int64) (AADReport, error) {
	var rep AADReport
	k, eps := 3.0, 0.2
	for _, n := range []int{4, 5} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64((i * 3) % 4)
		}
		base := repro.Scenario{
			Graph:  fmt.Sprintf("clique:%d", n),
			Inputs: inputs,
			F:      1, K: k, Eps: eps, Seed: seed,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "silent"}},
		}
		aadRun := base
		aadRun.Protocol = "aad"
		aadOut, err := aadRun.Run()
		if err != nil {
			return rep, err
		}
		bwRun := base
		bwRun.Protocol = "bw"
		bwOut, err := bwRun.Run()
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, AADComparison{
			N: n, F: 1,
			AADMessages: aadOut.MessagesSent, BWMessages: bwOut.MessagesSent,
			AADSpread: aadOut.Spread, BWSpread: bwOut.Spread,
			BothOK: aadOut.Converged && aadOut.ValidityOK && bwOut.Converged && bwOut.ValidityOK,
		})
	}
	return rep, nil
}

// IterativeReport is experiment E9: the local-algorithm ablation.
type IterativeReport struct {
	CliqueConverged   bool
	CliqueSpread      float64
	CliqueRobust      bool // K5 is (f+1,f+1)-robust: W-MSR's tight condition
	TwoCliqueSpread   float64
	TwoCliqueStalled  bool
	TwoClique3Reach   bool // the separation: 3-reach holds ...
	TwoCliqueRobust   bool // ... while (f+1,f+1)-robustness fails
	BWTwoCliqueSpread float64
	BWConverged       bool
}

// Render prints the ablation.
func (r IterativeReport) Render() string {
	var b strings.Builder
	b.WriteString("E9 / iterative (local trimmed-mean) ablation\n")
	fmt.Fprintf(&b, "  clique K5 ((2,2)-robust=%v):  iterative converges=%v (spread %.4g)\n",
		r.CliqueRobust, r.CliqueConverged, r.CliqueSpread)
	fmt.Fprintf(&b, "  two-clique: 3-reach=%v, (2,2)-robust=%v — the separation\n",
		r.TwoClique3Reach, r.TwoCliqueRobust)
	fmt.Fprintf(&b, "  two-clique: iterative spread=%.4g stalled=%v\n", r.TwoCliqueSpread, r.TwoCliqueStalled)
	fmt.Fprintf(&b, "  two-clique: BW spread=%.4g converged=%v\n", r.BWTwoCliqueSpread, r.BWConverged)
	b.WriteString("  local algorithms need (f+1,f+1)-robustness [13], strictly stronger than 3-reach.\n")
	return b.String()
}

// RunIterativeAblation produces the E9 report.
func RunIterativeAblation(seed int64) (IterativeReport, error) {
	var rep IterativeReport
	// Clique: iterative works.
	rep.CliqueRobust, _ = cond.CheckRobustness(graph.Clique(5), 2, 2)
	out, err := repro.Scenario{
		Name: "k5-iterative", Graph: "clique:5", Protocol: "iterative",
		Inputs: []float64{0, 1, 2, 3, 4},
		F:      1, Eps: 0.01, Rounds: 30, Seed: seed,
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.CliqueConverged = out.Converged
	rep.CliqueSpread = out.Spread

	// Two-clique 3-reach graph: iterative stalls, BW converges.
	g := graph.Fig1bAnalog()
	rep.TwoClique3Reach, _ = cond.Check3Reach(g, 1)
	rep.TwoCliqueRobust, _ = cond.CheckRobustness(g, 2, 2)
	inputs := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	out, err = repro.Scenario{
		Name: "two-clique-iterative", Graph: "fig1b-analog", Protocol: "iterative",
		Inputs: inputs,
		F:      1, Eps: 0.5, Rounds: 30, Seed: seed,
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.TwoCliqueSpread = out.Spread
	rep.TwoCliqueStalled = out.Spread >= 0.5

	bwOut, err := repro.Scenario{
		Name: "two-clique-bw", Graph: "fig1b-analog", Protocol: "bw",
		Inputs: inputs,
		F:      1, K: 1, Eps: 0.25, Seed: seed,
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.BWTwoCliqueSpread = bwOut.Spread
	rep.BWConverged = bwOut.Converged && bwOut.ValidityOK
	return rep, nil
}

// CrashReport covers the Table 2 crash/asynchronous cell (Theorem 2):
// the 2-reach algorithm under crash faults.
type CrashReport struct {
	Graph     string
	TwoReach  bool
	Converged bool
	Validity  bool
	Spread    float64
	Messages  int
}

// Render prints the report.
func (r CrashReport) Render() string {
	var b strings.Builder
	b.WriteString("Table 2 crash/async cell (Theorem 2) — 2-reach crash algorithm\n")
	fmt.Fprintf(&b, "  graph=%s 2-reach=%v converged=%v validity=%v spread=%.4g messages=%d\n",
		r.Graph, r.TwoReach, r.Converged, r.Validity, r.Spread, r.Messages)
	return b.String()
}

// RunCrashCell produces the crash-cell report.
func RunCrashCell(seed int64) (CrashReport, error) {
	g := graph.Circulant(5, 1, 2)
	rep := CrashReport{Graph: g.Name()}
	rep.TwoReach, _ = cond.Check2Reach(g, 1)
	out, err := repro.Scenario{
		Name: "crash-cell", Graph: "circulant:5:1,2", Protocol: "crashapprox",
		Inputs: []float64{0, 1, 2, 3, 4},
		F:      1, K: 4, Eps: 0.2, Seed: seed,
		Faults: []repro.FaultSpec{{Node: 2, Kind: "crash", Params: map[string]float64{"after": 12}}},
	}.Run()
	if err != nil {
		return rep, err
	}
	rep.Converged = out.Converged
	rep.Validity = out.ValidityOK
	rep.Spread = out.Spread
	rep.Messages = out.MessagesSent
	return rep, nil
}
