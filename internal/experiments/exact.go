package experiments

import (
	"fmt"

	"repro"
)

// Experiment E15 exercises the exact-consensus tier (aba, acs) the way E13
// exercises the approximate tier: a ladder of graph rungs crossed with the
// full registered adversary matrix — every fault kind with its default
// params on all f nodes at once, a composed crash+noise cell, and a
// link-fault cell. Exact consensus has no ε slack, so each non-skipped
// rung must decide with spread exactly zero, stay within the honest input
// range, and (for acs) agree on a subset of at least n−f origins — exactly
// n−f in the rows where the f nodes run the silent or equivocate strategies.
//
// The exact tier requires a complete communication graph (its thresholds
// assume all-to-all links), so the ladder runs the clique family plus the
// k-out-regular family at k = n−1 — complete by construction, a positive
// control that family specs route through the ladder — and reports the
// expander family as explicitly skipped: d < n/2 means an expander is
// never complete.

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
		for v := n - f; v < n; v++ { // node order: the scenario's canonical form
			specs = append(specs, repro.FaultSpec{Node: v, Kind: kind, Params: params, Compose: compose})
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

// exact is E15. Inputs come from the mod generator: aba proposes bits
// (mod 2), acs values in [0, 2] (mod 3) — in both cases the faulty nodes'
// inputs fall inside the honest range, so validity must hold whether or not
// a faulty origin's broadcast lands in the agreed subset.
func exact(seed int64) Suite {
	su := Suite{Name: "exact", Title: "E15 / exact tier — aba and acs across complete-graph families x the full adversary matrix (f nodes per cell)"}
	for _, protocol := range []string{"aba", "acs"} {
		mod, k := 2, 1.0
		if protocol == "acs" {
			mod, k = 3, 2.0
		}
		for ri, rung := range exactRungs {
			for ai, adv := range exactAdversaries(rung.n, rung.f) {
				c := Cell{
					Label: fmt.Sprintf("%s %s n=%d f=%d %s", protocol, rung.family, rung.n, rung.f, adv.name),
					Scenario: repro.Scenario{
						Name:     fmt.Sprintf("exact-%s-%s-%d-%s", protocol, rung.family, rung.n, adv.name),
						Graph:    rung.spec,
						Protocol: protocol,
						InputGen: &repro.InputGenSpec{Kind: "mod", Mod: mod},
						F:        rung.f, K: k, Eps: 0.25,
						Seed:       seed + int64(1000*ri+ai),
						Faults:     adv.faults,
						LinkFaults: adv.links,
					},
				}
				if protocol == "acs" {
					// Silent origins never broadcast and equivocating
					// origins never assemble an echo quorum, so the agreed
					// subset is exactly the honest n−f there.
					c.Expect.Subset = rung.n - rung.f
					c.Expect.ExactSubset = adv.name == "silent" || adv.name == "silent+linkfaults" || adv.name == "equivocate"
				}
				su.Cells = append(su.Cells, c)
			}
		}
		su.Notes = append(su.Notes, fmt.Sprintf(
			"exact-%s-expander: the exact tier requires a complete graph; an expander (d < n/2) is never complete — no expander rung can run", protocol))
	}
	return su
}
