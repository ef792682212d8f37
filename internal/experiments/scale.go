package experiments

import (
	"fmt"

	"repro"
	"repro/internal/graph"
)

// scaleSizes is the E14 ladder of graph orders. The rungs above the
// default build's node limit (graph.MaxNodes = 1024) only materialize under
// the graph4096 build tag; scale drops them with an explicit skip note
// otherwise.
var scaleSizes = []int{8, 32, 128, 512, 1024, 2048, 4096}

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

// scale is E14, the scale axis none of the paper-reproduction experiments
// exercise: Algorithm BW on the directed cycle (the path-sparse family —
// every other named family's redundant-path count explodes past the
// protocol budget long before n = 1024) with an explicit zero fault bound,
// and the local iterative baseline on the torus and expander families with
// f = 1. maxN caps the ladder (0 = the build's node limit). Cells run one at
// a time — each large cell saturates memory bandwidth on its own, and wall
// time per cell is itself the measurement. Each graph is certified once,
// after the cells ran, at the fault bound its rows state, and the verdict
// is printed on every row of that graph.
func scale(seed int64, maxN int) Suite {
	limit := "the build's node limit"
	if maxN > 0 {
		limit = fmt.Sprintf("n=%d (-maxn; 0 = the build's node limit)", maxN)
	}
	su := Suite{
		Name:       "scale",
		Title:      "E14 / scale-out — BW and iterative from n=8 up to " + limit + ", sim vs loopback (n=4096 under -tags graph4096)",
		Sequential: true,
	}
	faultBound := map[string]int{} // graph spec -> the f its rows state
	verdicts := map[string]string{}
	su.Annotate = func(c Cell) string {
		g := c.Scenario.Graph
		if verdicts[g] == "" {
			verdicts[g] = certNote(g, faultBound[g])
		}
		return verdicts[g]
	}
	add := func(s repro.Scenario, f int, label string, expect Outcome, runtimes ...string) {
		faultBound[s.Graph] = f
		for _, rt := range runtimes {
			su.Cells = append(su.Cells, Cell{Label: label, Scenario: s, Runtime: rt, Expect: Expect{Outcome: expect}})
		}
	}
	for _, n := range scaleSizes {
		if maxN > 0 && n > maxN {
			continue
		}
		if n > graph.MaxNodes {
			su.Notes = append(su.Notes, fmt.Sprintf("n=%d rung: exceeds this build's node limit (graph.MaxNodes=%d); rebuild with -tags graph4096", n, graph.MaxNodes))
			continue
		}
		if n <= scaleBWMaxN {
			bw := repro.Scenario{
				Name:     fmt.Sprintf("scale-bw-cycle-%d", n),
				Graph:    fmt.Sprintf("cycle:%d", n),
				Protocol: "bw",
				InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 2},
				F:        repro.FZero, K: 1, Eps: 0.6, Seed: seed,
			}
			label := fmt.Sprintf("bw cycle n=%d f=0", n)
			if n > scaleLoopbackMaxBW {
				add(bw, 0, label, Converges, repro.RuntimeSim)
				su.Notes = append(su.Notes, fmt.Sprintf("scale-bw-cycle-%d on loopback: a live fleet holds ~n² COMPLETE frames of O(n) entries in flight (n=512: 7.6 GB peak RSS); n > %d is simulator-only", n, scaleLoopbackMaxBW))
			} else {
				add(bw, 0, label, Converges, repro.RuntimeSim, repro.RuntimeLoopback)
			}
		} else {
			su.Notes = append(su.Notes, fmt.Sprintf("scale-bw-cycle-%d: BW's redundant-path machinery is past its seconds-to-minutes budget above n=%d; the %d rung runs the iterative baseline only", n, scaleBWMaxN, n))
		}
		d := scaleTorusDims[n]
		for _, it := range []struct{ family, graph string }{
			{"torus", fmt.Sprintf("torus:%d:%d", d[0], d[1])},
			{"expander", fmt.Sprintf("expander:%d:3:%d", n, seed)},
		} {
			s := repro.Scenario{
				Name:     fmt.Sprintf("scale-iter-%s-%d", it.family, n),
				Graph:    it.graph,
				Protocol: "iterative",
				InputGen: &repro.InputGenSpec{Kind: "mod", Mod: 4},
				F:        1, K: 3, Eps: 0.25, Seed: seed,
			}
			// An iterative row claims a decision only: on these sparse
			// families its rounds do not reach ε, and the ladder measures
			// delivery cost.
			label := fmt.Sprintf("iterative %s n=%d f=1", it.family, n)
			// Above the default dimension the iterative rows run
			// simulator-only: a live loopback cluster of thousands of
			// goroutine nodes measures the host's scheduler, not the
			// protocol.
			if n > 1024 {
				add(s, 1, label, DecidesOnly, repro.RuntimeSim)
				su.Notes = append(su.Notes, fmt.Sprintf("%s on loopback: n > 1024 cluster rows measure host scheduling, not the protocol; simulator-only", s.Name))
			} else {
				add(s, 1, label, DecidesOnly, repro.RuntimeSim, repro.RuntimeLoopback)
			}
		}
	}
	return su
}

// certNote certifies a graph at fault bound f, or carries CheckConditions'
// explicit skip note when it is past CertLimit's budget of removal sets.
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
