package iterative_test

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/sim"
	"repro/internal/transport"
)

func run(t *testing.T, g *graph.Graph, f, rounds int, inputs []float64,
	faulty map[int]sim.Handler, seed int64) map[int]float64 {
	t.Helper()
	honest := graph.EmptySet
	handlers := make([]sim.Handler, g.N())
	for i := 0; i < g.N(); i++ {
		if h, bad := faulty[i]; bad {
			handlers[i] = h
			continue
		}
		m, err := iterative.NewMachine(g, f, i, rounds, inputs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
		honest = honest.Add(i)
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs, all := r.Outputs(honest)
	if !all {
		t.Fatalf("nodes did not finish: %v", outs)
	}
	t.Logf("%s outputs=%v", g, outs)
	return outs
}

func spread(outs map[int]float64) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range outs {
		min, max = math.Min(min, x), math.Max(max, x)
	}
	return max - min
}

func TestIterativeCliqueConverges(t *testing.T) {
	g := graph.Clique(5)
	outs := run(t, g, 1, 30, []float64{0, 1, 2, 3, 4}, nil, 3)
	if s := spread(outs); s >= 0.01 {
		t.Errorf("clique iterative should converge, spread = %g", s)
	}
}

func TestIterativeCliqueWithSilentFault(t *testing.T) {
	g := graph.Clique(5)
	outs := run(t, g, 1, 30, []float64{0, 1, 2, 3, 4},
		map[int]sim.Handler{2: &adversary.Silent{NodeID: 2}}, 5)
	if s := spread(outs); s >= 0.01 {
		t.Errorf("spread = %g", s)
	}
	for _, x := range outs {
		if x < 0 || x > 4 {
			t.Errorf("validity violated: %g", x)
		}
	}
}

// TestIterativeFailsOn3ReachGraph is the E9 ablation: the two-clique
// Figure 1(b) analog satisfies 3-reach for f=1 — algorithm BW converges on
// it (see the adversary tests) — yet the local trimmed-mean update cannot:
// each clique trims away the single cross-clique value as a potential
// Byzantine extreme, so the cliques' values never merge even with NO actual
// faults. Local algorithms require a strictly stronger condition than
// 3-reach.
func TestIterativeFailsOn3ReachGraph(t *testing.T) {
	g := graph.Fig1bAnalog()
	inputs := []float64{0, 0, 0, 0, 1, 1, 1, 1} // clique K1 at 0, K2 at 1
	outs := run(t, g, 1, 40, inputs, nil, 7)
	if s := spread(outs); s < 0.5 {
		t.Errorf("expected the cliques to stay separated, spread = %g", s)
	}
	// Per-clique agreement still holds (each clique is locally fine).
	for _, clique := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range clique {
			min, max = math.Min(min, outs[v]), math.Max(max, outs[v])
		}
		if max-min > 1e-9 {
			t.Errorf("intra-clique spread %g", max-min)
		}
	}
}

func TestIterativeValidity(t *testing.T) {
	g := graph.Clique(4)
	outs := run(t, g, 1, 20, []float64{1, 2, 3, 1.5}, nil, 9)
	for _, x := range outs {
		if x < 1 || x > 3 {
			t.Errorf("validity violated: %g", x)
		}
	}
}

func TestIterativeZeroRounds(t *testing.T) {
	g := graph.Clique(3)
	m, err := iterative.NewMachine(g, 1, 0, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.NewCollector(0, g)
	m.Start(col)
	if out, done := m.Output(); !done || out != 5 {
		t.Errorf("out=%g done=%v", out, done)
	}
}

func TestIterativeRejectsBadParams(t *testing.T) {
	g := graph.Clique(3)
	if _, err := iterative.NewMachine(g, -1, 0, 5, 0, nil); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := iterative.NewMachine(g, 1, 0, -5, 0, nil); err == nil {
		t.Error("negative rounds accepted")
	}
}

// nonFinite is a faulty in-neighbor inside the model: every message it
// sends is well formed, and every value it sends is bad.
type nonFinite struct {
	id, rounds int
	bad        float64
}

func (h *nonFinite) ID() int { return h.id }
func (h *nonFinite) Start(out *sim.Outbox) {
	for r := 1; r <= h.rounds; r++ {
		out.Broadcast(iterative.ValPayload{Round: r, Value: h.bad})
	}
}
func (h *nonFinite) Deliver(transport.Message, *sim.Outbox) {}
func (h *nonFinite) Output() (float64, bool)                { return 0, false }

// TestIterativeNonFiniteSender: one in-neighbor sending NaN or ±Inf — a
// single fault, inside the f = 1 budget — must not move an honest output
// out of the honest input hull, let alone make it NaN, and must not stop
// the run from deciding.
func TestIterativeNonFiniteSender(t *testing.T) {
	// The shortest reproduction: sort.Float64s puts NaN first, the low trim
	// only removes values below x, and NaN is below nothing.
	g := graph.Clique(5)
	m, err := iterative.NewMachine(g, 1, 0, 1, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, g)
	m.Start(out)
	m.Deliver(transport.Message{From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: math.NaN()}}, out)
	for from := 2; from <= 4; from++ {
		m.Deliver(transport.Message{From: from, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 2.0}}, out)
	}
	if x, done := m.Output(); !done || !(x >= 1 && x <= 2) {
		t.Errorf("node 0 output %g (done=%v), want a value in [1,2]", x, done)
	}

	for _, tc := range []struct {
		g      *graph.Graph
		rounds int
	}{{graph.Clique(5), 6}, {graph.Torus(4, 4), 6}} {
		n := tc.g.N()
		inputs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range inputs {
			inputs[i] = float64(37*i%41) / 10
			if i != n-1 {
				lo, hi = math.Min(lo, inputs[i]), math.Max(hi, inputs[i])
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for seed := int64(1); seed <= 3; seed++ {
				faulty := map[int]sim.Handler{n - 1: &nonFinite{id: n - 1, rounds: tc.rounds, bad: bad}}
				outs := run(t, tc.g, 1, tc.rounds, inputs, faulty, seed) // fails unless every honest node decides
				for v, x := range outs {
					if !(x >= lo && x <= hi) {
						t.Errorf("%s, in-neighbor sending %g, seed %d: node %d output %g outside [%g,%g]",
							tc.g, bad, seed, v, x, lo, hi)
					}
				}
			}
		}
	}
}
