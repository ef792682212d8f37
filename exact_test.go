// Conformance tests for the exact tier (aba, acs): the same scenario —
// composed adversaries, link faults and all — must satisfy the tier's
// guarantees on the deterministic simulator, the loopback cluster and real
// TCP sockets, and on the simulator the goroutine reference must replay the
// bare machines' delivery trace byte for byte.
//
// Exact consensus has no ε slack: agreement means spread exactly zero, and
// for acs additionally that every honest node decides the same subset and
// the same decision vector, of size at least n−f, carrying real inputs.
package repro_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro"
)

// exactScenarios returns one scenario per exact-tier protocol, each with a
// composed adversary and liveness-preserving link faults (duplicate and
// delay — never unconditional drops, which could starve a quorum).
//
// The aba scenario gives honest nodes unanimous input 1, so the binding
// rule pins the decision and the equivocating node (which two-faces its
// votes per recipient and replays stale ones) cannot flip it. The acs
// scenario's faulty node sprays noise on its input broadcast and crashes
// mid-protocol: its slot, if it lands in the agreed subset, may hold
// anything, and every honest origin's slot holds that origin's input.
func exactScenarios(seed int64) []repro.Scenario {
	links := []repro.LinkFault{
		{Kind: "duplicate", Edges: [][2]int{{0, 1}}, Params: map[string]float64{"prob": 0.5}},
		{Kind: "delay", Edges: [][2]int{{1, 2}}, Params: map[string]float64{"prob": 0.4, "amount": 5}},
	}
	return []repro.Scenario{
		{
			Name: "aba-equivocate-replay", Graph: "clique:4", Protocol: "aba",
			Inputs: []float64{1, 1, 1, 0}, F: 1, K: 1, Eps: 0.25, Seed: seed,
			Faults: []repro.FaultSpec{{
				Node: 3, Kind: "equivocate",
				Compose: []repro.Mutation{{Kind: "replay"}},
			}},
			LinkFaults: links,
		},
		{
			Name: "acs-crash-noise", Graph: "clique:4", Protocol: "acs",
			Inputs: []float64{0, 3, 1, 2}, F: 1, K: 3, Eps: 0.25, Seed: seed,
			Faults: []repro.FaultSpec{{
				Node: 3, Kind: "crash", Params: map[string]float64{"after": 40},
				Compose: []repro.Mutation{{Kind: "noise", Params: map[string]float64{"amp": 1}}},
			}},
			LinkFaults: links,
		},
	}
}

// checkExactResult asserts the exact tier's guarantees on one run: all
// honest nodes decide, agreement is exact (spread zero), and every decided
// value is legitimate for the scenario. For acs it additionally checks the
// decision vectors: identical across honest nodes, at least n−f entries,
// every honest origin's entry equal to that origin's real input, and the
// run reads valid by that slot rule.
func checkExactResult(t *testing.T, label string, s repro.Scenario, res *repro.Result) {
	t.Helper()
	if !res.Decided {
		t.Fatalf("%s: honest nodes did not all decide", label)
	}
	if res.Spread != 0 {
		t.Fatalf("%s: exact tier decided with nonzero spread %v (outputs %v)", label, res.Spread, res.Outputs)
	}
	if !res.Converged {
		t.Fatalf("%s: not converged: %+v", label, res)
	}
	switch s.Protocol {
	case "aba":
		for id, v := range res.Outputs {
			if v != 1 {
				t.Fatalf("%s: node %d decided %v against honest-unanimous 1", label, id, v)
			}
		}
	case "acs":
		const n, f = 4, 1
		var base map[int]float64
		for _, id := range sortedKeys(res.Vectors) {
			vec := res.Vectors[id]
			if len(vec) < n-f {
				t.Fatalf("%s: node %d vector %v smaller than n-f=%d", label, id, vec, n-f)
			}
			for origin, v := range vec {
				if origin < 0 || origin >= n || (res.Honest.Has(origin) && v != s.Inputs[origin]) {
					t.Fatalf("%s: node %d vector slot %d carries %v, input was %v",
						label, id, origin, v, s.Inputs[origin])
				}
			}
			if base == nil {
				base = vec
			} else if !reflect.DeepEqual(vec, base) {
				t.Fatalf("%s: vectors differ across nodes: %v vs %v", label, vec, base)
			}
		}
		if base == nil {
			t.Fatalf("%s: no honest node reported a decision vector", label)
		}
		if got := len(res.Vectors); got < n-f {
			t.Fatalf("%s: only %d honest vectors reported", label, got)
		}
		if !res.ValidityOK {
			t.Fatalf("%s: vectors %v read invalid", label, res.Vectors)
		}
	}
}

func sortedKeys(m map[int]map[int]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// TestExactCrossRuntime: each exact-tier scenario — composed adversary,
// link faults — must satisfy the tier's guarantees on all three runtimes.
// The agreed subset may legally differ between runtimes (it depends on the
// schedule), so each run is judged on its own terms.
func TestExactCrossRuntime(t *testing.T) {
	for _, seed := range []int64{1, 23} {
		for _, s := range exactScenarios(seed) {
			for _, runtime := range repro.RuntimeNames() {
				s := s
				t.Run(fmt.Sprintf("%s/seed%d/%s", s.Name, seed, runtime), func(t *testing.T) {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					res, err := s.RunOn(ctx, runtime)
					if err != nil {
						t.Fatalf("%s: %v", runtime, err)
					}
					checkExactResult(t, runtime, s, res)
				})
			}
		}
	}
}

// TestExactCrossEngine: on the simulator, the goroutine reference must
// replay the bare machines' delivery trace byte for byte — the exact tier
// inherits the determinism contract wholesale, including its decision
// vectors.
func TestExactCrossEngine(t *testing.T) {
	for _, seed := range []int64{1, 23} {
		for _, s := range exactScenarios(seed) {
			s := traced(s)
			t.Run(fmt.Sprintf("%s/seed%d", s.Name, seed), func(t *testing.T) {
				base, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				checkExactResult(t, "inline", s, base)
				requireSameRun(t, "goroutine", base, runGoroutineRef(t, s))
			})
		}
	}
}
