package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro"
	"repro/internal/cond"
	"repro/internal/graph"
)

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

// sweep is E5b: BW on randomly generated 3-reach digraphs with randomly
// chosen Byzantine behaviors — unlike E5's fixed graphs, topologies with no
// hand-built structure. Candidate generation is sequential, so the rng
// stream, and therefore the chosen graphs, inputs and fault patterns, are
// the same whatever the worker count; each cell's graph is a
// "random:<n>:<p>:<seed>" spec, so every cell is replayable via
// `abacsim -scenario`.
func sweep(count int, seed int64) Suite {
	su := Suite{Name: "sweep", Title: "E5b / generality sweep — BW on random 3-reach digraphs (f=1)"}
	rng := rand.New(rand.NewSource(seed))
	candidates := 0
	for len(su.Cells) < count && candidates < 50*count {
		candidates++
		gseed := seed + int64(candidates)
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
		su.Cells = append(su.Cells, Cell{
			Label: fmt.Sprintf("n=%d m=%d %s", n, g.M(), behavior.name),
			Scenario: repro.Scenario{
				Name: fmt.Sprintf("sweep-%d", gseed),
				Graph: "random:" + strconv.Itoa(n) + ":" +
					strconv.FormatFloat(p, 'g', -1, 64) + ":" + strconv.FormatInt(gseed, 10),
				Protocol: "bw",
				Inputs:   inputs,
				F:        1, K: 4, Eps: 0.25, Seed: gseed,
				Faults: []repro.FaultSpec{fault},
			},
		})
	}
	found := len(su.Cells)
	su.Checks = func([]Row) []Check {
		return []Check{{Name: fmt.Sprintf("3-reach digraphs within the path budget among %d candidates", candidates), Got: found, Want: count}}
	}
	return su
}
