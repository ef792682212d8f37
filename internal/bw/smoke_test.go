package bw_test

import (
	"math"
	"testing"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// runHonest executes BW with all nodes honest and returns the outputs.
func runHonest(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64, seed int64) map[int]float64 {
	t.Helper()
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatalf("NewProto: %v", err)
	}
	handlers := make([]sim.Handler, g.N())
	machines := make([]*bw.Machine, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatalf("NewMachine(%d): %v", i, err)
		}
		handlers[i], machines[i] = m, m
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	outs, all := r.Outputs(g.Nodes())
	if !all {
		t.Fatalf("not all nodes produced output; steps=%d sent=%d", r.Steps(), r.Stats().Sent)
	}
	t.Logf("graph=%s steps=%d sent=%d outputs=%v", g, r.Steps(), r.Stats().Sent, outs)
	for i, m := range machines {
		if snap := m.Snapshot(); snap.PathDropped != 0 || snap.SeqDropped != 0 {
			t.Errorf("node %d: an honest run dropped %d paths and %d sequence numbers", i, snap.PathDropped, snap.SeqDropped)
		}
	}
	return outs
}

func checkAgreement(t *testing.T, outs map[int]float64, eps, lo, hi float64) {
	t.Helper()
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range outs {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	if max-min >= eps {
		t.Errorf("convergence violated: spread %g >= eps %g", max-min, eps)
	}
	if min < lo || max > hi {
		t.Errorf("validity violated: outputs [%g,%g] outside input range [%g,%g]", min, max, lo, hi)
	}
}

func TestSmokeCliqueHonest(t *testing.T) {
	g := graph.Clique(4)
	outs := runHonest(t, g, 1, []float64{0, 1, 2, 3}, 3, 0.1, 42)
	checkAgreement(t, outs, 0.1, 0, 3)
}

func TestSmokeFig1aHonest(t *testing.T) {
	g := graph.Fig1a()
	outs := runHonest(t, g, 1, []float64{0, 4, 1, 3, 2}, 4, 0.25, 7)
	checkAgreement(t, outs, 0.25, 0, 4)
}
