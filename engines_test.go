// Reference-equivalence and schedule-determinism regression tests: the
// delivery loop's direct handler calls and the goroutine-per-node reference
// (reference_test.go) must replay byte-identical delivery traces and
// produce identical outputs for the same (seed, policy, graph) tuple, and
// repeated runs of one tuple must never drift.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestCrossEngineEquivalenceBW runs the full BW protocol with a Byzantine
// fault on the bare machines and on the goroutine reference and demands
// identical traces, outputs and message accounting.
func TestCrossEngineEquivalenceBW(t *testing.T) {
	for _, seed := range []int64{1, 5, 23} {
		s := repro.Scenario{
			Graph: "fig1a", Protocol: "bw", Inputs: []float64{0, 4, 1, 3, 2},
			F: 1, K: 4, Eps: 0.25, Seed: seed, RecordTrace: true,
			Faults: []repro.FaultSpec{{Node: 1, Kind: "tamper", Params: map[string]float64{"delta": 50}}},
		}
		direct, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameRun(t, fmt.Sprintf("seed %d", seed), direct, runGoroutineRef(t, s))
	}
}

// bwTrace runs honest BW on g under the given policy — on the goroutine
// reference when wrap is set — and returns the delivery trace plus a
// rendering of the outputs.
func bwTrace(t *testing.T, g *graph.Graph, policy transport.Policy, wrap bool) (string, string) {
	t.Helper()
	proto, err := bw.NewProto(g, 1, 4, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := bw.NewMachine(proto, i, float64((i*3)%5))
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
		if wrap {
			handlers[i] = inGoroutine(t, g, m)
		}
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: policy, RecordTrace: true}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs, all := r.Outputs(g.Nodes())
	return r.TraceString(), fmt.Sprintf("%v %v", outs, all)
}

// TestScheduleDeterminismRegression fixes (seed, policy, graph) and demands
// a byte-identical delivery trace across repeated runs, on the bare
// machines and on the goroutine reference, for every asynchrony policy.
// This is the regression fence for the transport determinism contract
// (pending order is a pure function of the Add/Take/ReleaseHeld sequence).
func TestScheduleDeterminismRegression(t *testing.T) {
	g := graph.Clique(4)
	policies := []struct {
		name string
		make func() transport.Policy
	}{
		{"random", func() transport.Policy { return transport.NewRandomPolicy(77) }},
		{"fifo", func() transport.Policy { return transport.FIFOPolicy{} }},
		{"lifo", func() transport.Policy { return transport.LIFOPolicy{} }},
		{"bounded", func() transport.Policy { return transport.NewBoundedDelayPolicy(5, 77) }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			baseTrace, baseOut := bwTrace(t, g, pc.make(), false)
			if baseTrace == "" {
				t.Fatal("empty trace")
			}
			for run := 0; run < 2; run++ {
				for _, wrap := range []bool{false, true} {
					trace, out := bwTrace(t, g, pc.make(), wrap)
					if trace != baseTrace {
						t.Fatalf("goroutine reference %v run %d: trace drifted", wrap, run)
					}
					if out != baseOut {
						t.Fatalf("goroutine reference %v run %d: outputs drifted: %s vs %s",
							wrap, run, out, baseOut)
					}
				}
			}
		})
	}
}
