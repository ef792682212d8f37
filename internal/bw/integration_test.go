package bw_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// buildMachines constructs one honest machine per node.
func buildMachines(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64) ([]sim.Handler, []*bw.Machine) {
	t.Helper()
	proto, err := bw.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	machines := make([]*bw.Machine, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		handlers[i] = m
	}
	return handlers, machines
}

func execute(t *testing.T, g *graph.Graph, handlers []sim.Handler, policy transport.Policy) *sim.Runner {
	t.Helper()
	r, err := sim.New(sim.Config{Graph: g, Policy: policy}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBWDeterministicUnderSeed(t *testing.T) {
	run := func() map[int]float64 {
		g := graph.Fig1a()
		handlers, _ := buildMachines(t, g, 1, []float64{0, 1, 2, 3, 4}, 4, 0.5)
		r := execute(t, g, handlers, transport.NewRandomPolicy(77))
		outs, all := r.Outputs(g.Nodes())
		if !all {
			t.Fatal("undecided")
		}
		return outs
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

// TestBWAllSchedules runs the same configuration under FIFO, LIFO and
// several random schedules; convergence and validity must hold under every
// asynchrony pattern.
func TestBWAllSchedules(t *testing.T) {
	policies := map[string]func() transport.Policy{
		"fifo":    func() transport.Policy { return transport.FIFOPolicy{} },
		"lifo":    func() transport.Policy { return transport.LIFOPolicy{} },
		"random1": func() transport.Policy { return transport.NewRandomPolicy(1) },
		"random2": func() transport.Policy { return transport.NewRandomPolicy(999) },
		"bounded": func() transport.Policy { return transport.NewBoundedDelayPolicy(40, 5) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			g := graph.Clique(4)
			handlers, _ := buildMachines(t, g, 1, []float64{0, 3, 1, 2}, 3, 0.2)
			r := execute(t, g, handlers, mk())
			outs, all := r.Outputs(g.Nodes())
			if !all {
				t.Fatal("undecided")
			}
			min, max := math.Inf(1), math.Inf(-1)
			for _, x := range outs {
				min, max = math.Min(min, x), math.Max(max, x)
			}
			if max-min >= 0.2 || min < 0 || max > 3 {
				t.Errorf("outputs %v violate agreement/validity", outs)
			}
		})
	}
}

// TestBWLemma15Halving checks the per-round contraction U[r+1]-µ[r+1] <=
// (U[r]-µ[r])/2 on recorded histories (experiment E6).
func TestBWLemma15Halving(t *testing.T) {
	g := graph.Fig1a()
	inputs := []float64{0, 8, 4, 6, 2}
	handlers, machines := buildMachines(t, g, 1, inputs, 8, 0.2)
	execute(t, g, handlers, transport.NewRandomPolicy(31))

	rounds := len(machines[0].Snapshot().History)
	prev := 8.0
	for r := 0; r < rounds; r++ {
		min, max := math.Inf(1), math.Inf(-1)
		for _, m := range machines {
			h := m.Snapshot().History
			if len(h) != rounds {
				t.Fatalf("history lengths differ: %d vs %d", len(h), rounds)
			}
			min, max = math.Min(min, h[r]), math.Max(max, h[r])
		}
		if max-min > prev/2+1e-12 {
			t.Errorf("round %d: spread %g exceeds half of %g", r+1, max-min, prev)
		}
		prev = max - min
	}
	if prev >= 0.2 {
		t.Errorf("final spread %g >= eps", prev)
	}
}

// TestBWFig1bAnalog runs the scaled Figure 1(b) graph end to end (E4).
func TestBWFig1bAnalog(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier end-to-end run")
	}
	g := graph.Fig1bAnalog()
	inputs := []float64{0, 0.5, 1, 0.25, 0.75, 1, 0, 0.5}
	handlers, _ := buildMachines(t, g, 1, inputs, 1, 0.25)
	r := execute(t, g, handlers, transport.NewRandomPolicy(41))
	outs, all := r.Outputs(g.Nodes())
	if !all {
		t.Fatal("undecided")
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range outs {
		min, max = math.Min(min, x), math.Max(max, x)
	}
	if max-min >= 0.25 {
		t.Errorf("spread = %g", max-min)
	}
	if min < 0 || max > 1 {
		t.Errorf("validity violated: [%g, %g]", min, max)
	}
	t.Logf("fig1b-analog: outputs=%v messages=%d", outs, r.Stats().Sent)
}

// TestClausesSharedPerRound: the parallel executions of a round read one
// M_v, so a Completeness obligation (S, q, want) is one clause per round,
// however many threads' snapshots impose it. After a run every round holds
// exactly one clause per distinct obligation, and the run creates the
// recorded number of clauses — the number of distinct obligations per
// round, summed; with a clause per thread the same runs created 7 492,
// 1 090 and 25 600.
func TestClausesSharedPerRound(t *testing.T) {
	cases := []struct {
		g       *graph.Graph
		inputs  []float64
		k, eps  float64
		seed    int64
		clauses int
	}{
		{graph.Fig1a(), []float64{0.1, 3.9, 1.3, 2.7, 0.6}, 4, 0.1, 1, 1500},
		{graph.Clique(4), []float64{0, 1, 2, 3}, 3, 0.5, 0, 288},
		{graph.Fig1bAnalog(), []float64{0, 0.5, 1, 0.25, 0.75, 1, 0, 0.5}, 1, 0.5, 41, 3200},
	}
	for _, tc := range cases {
		handlers, machines := buildMachines(t, tc.g, 1, tc.inputs, tc.k, tc.eps)
		execute(t, tc.g, handlers, transport.NewRandomPolicy(tc.seed))
		total := 0
		for v, m := range machines {
			clauses, obligations := bw.RoundClauses(m)
			if clauses != obligations {
				t.Errorf("%s vertex %d: %d clauses for %d distinct obligations", tc.g, v, clauses, obligations)
			}
			total += clauses
		}
		if total != tc.clauses {
			t.Errorf("%s: the run created %d clauses, want %d", tc.g, total, tc.clauses)
		}
	}
}

// TestBWMetrics sanity-checks the observability counters.
func TestBWMetrics(t *testing.T) {
	g := graph.Clique(4)
	handlers, machines := buildMachines(t, g, 1, []float64{0, 1, 2, 3}, 3, 0.5)
	execute(t, g, handlers, transport.NewRandomPolicy(3))
	for i, m := range machines {
		snap := m.Snapshot()
		if snap.FAExecutions != bw.RoundsFor(3, 0.5) {
			t.Errorf("node %d: FA executions = %d, want %d", i, snap.FAExecutions, bw.RoundsFor(3, 0.5))
		}
		if snap.MCFires == 0 {
			t.Errorf("node %d: no MC fires", i)
		}
		if snap.TrimAnomalies != 0 {
			t.Errorf("node %d: trim anomalies = %d", i, snap.TrimAnomalies)
		}
		if snap.PathDropped != 0 || snap.SeqDropped != 0 || snap.NonFiniteDropped != 0 {
			t.Errorf("node %d: an honest run dropped %d paths, %d sequence numbers and %d non-finite values", i, snap.PathDropped, snap.SeqDropped, snap.NonFiniteDropped)
		}
	}
}

// TestBWIgnoresGarbage feeds malformed messages directly into a machine;
// they must all be rejected without state corruption. Those rejected at
// the door — for the (sender, entry) pair naming no admissible path — are
// each counted in PathDropped, those carrying a NaN or infinite value in
// NonFiniteDropped; the rest fail on round, tag, sequence number or type
// and are not.
func TestBWIgnoresGarbage(t *testing.T) {
	g := graph.Clique(4)
	proto, err := bw.NewProto(g, 1, 1, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bw.NewMachine(proto, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.NewCollector(0, g)
	m.Start(col)
	// <1, 0, 1> is a redundant path ending at 1; extended by 0 it repeats
	// both vertices and is not. <0, 1> extended by 0 is redundant but not
	// simple.
	bounce, loop := bw.EntryOf(proto, graph.Path{1, 0, 1}), bw.EntryOf(proto, graph.Path{0, 1})
	if bounce < 0 || loop < 0 {
		t.Fatalf("entries %d and %d: the paths are not in vertex 1's table", bounce, loop)
	}
	garbage := []struct {
		msg       transport.Message
		door      bool // dropped for its path
		nonFinite bool // dropped for a value
	}{
		// An id past the sender's table, and one below zero.
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1, Entry: 1 << 30}}, true, false},
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1, Entry: -1}}, true, false},
		// A sender that is no in-neighbor: the receiver itself, and a vertex
		// outside the graph.
		{transport.Message{From: 0, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1, Entry: 0}}, true, false},
		{transport.Message{From: 9, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1, Entry: 0}}, true, false},
		// A path of the sender's table whose extension is not redundant here.
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: 1, Entry: bounce}}, true, false},
		// Bad round.
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 99, Value: 1, Entry: 0}}, false, false},
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 0, Value: 1, Entry: 0}}, false, false},
		// COMPLETE with origin not matching the path's first vertex.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 2, Seq: 1, Tag: graph.SetOf(3), Entry: 0}}, true, false},
		// COMPLETE on a path that is not simple once extended.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 0, Seq: 1, Tag: graph.SetOf(3), Entry: loop}}, true, false},
		// COMPLETE on an id past the sender's table.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 1, Seq: 1, Tag: graph.SetOf(3), Entry: 1 << 30}}, true, false},
		// COMPLETE whose tag includes its own origin.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 1, Seq: 1, Tag: graph.SetOf(1), Entry: 0}}, false, false},
		// COMPLETE with an oversized tag.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 1, Seq: 1, Tag: graph.SetOf(2, 3), Entry: 0}}, false, false},
		// COMPLETE with zero sequence number.
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 1, Seq: 0, Tag: graph.SetOf(3), Entry: 0}}, false, false},
		// Unknown payload type.
		{transport.Message{From: 1, To: 0, Payload: junkPayload{}}, false, false},
		// Values no honest origin floods, as a VAL and as a COMPLETE entry.
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: math.NaN(), Entry: 0}}, false, true},
		{transport.Message{From: 1, To: 0, Payload: bw.ValPayload{Round: 1, Value: math.Inf(1), Entry: 0}}, false, true},
		{transport.Message{From: 1, To: 0, Payload: bw.CompletePayload{Round: 1, Origin: 1, Seq: 1, Tag: graph.SetOf(3), Entry: 0,
			Entries: []bw.ValEntry{{Value: 1, Entry: 0}, {Value: math.Inf(-1), Entry: 1}}}}, false, true},
	}
	for _, tc := range garbage {
		before := m.Snapshot()
		out := sim.NewCollector(0, g)
		m.Deliver(tc.msg, out)
		after := m.Snapshot()
		if before.FAExecutions != after.FAExecutions {
			t.Errorf("garbage %v advanced the machine", tc.msg)
		}
		want := before.PathDropped
		if tc.door {
			want++
		}
		if after.PathDropped != want {
			t.Errorf("garbage %+v: PathDropped %d -> %d, want %d", tc.msg, before.PathDropped, after.PathDropped, want)
		}
		want = before.NonFiniteDropped
		if tc.nonFinite {
			want++
		}
		if after.NonFiniteDropped != want {
			t.Errorf("garbage %+v: NonFiniteDropped %d -> %d, want %d", tc.msg, before.NonFiniteDropped, after.NonFiniteDropped, want)
		}
		if tc.nonFinite && len(out.Messages()) != 0 {
			t.Errorf("garbage %+v was relayed", tc.msg)
		}
	}
	if _, done := m.Output(); done {
		t.Error("garbage alone made the node decide")
	}
}

type junkPayload struct{}

func (junkPayload) Kind() string { return "JUNK" }

// TestPathTableImmutableUnderAdversaries: messages name paths by entry ids
// of the path tables and in-edge columns every machine of every run on the
// graph shares, so nothing may write to them — not a receiving machine, not
// the simulator, not any registered Byzantine behavior wrapped around a
// machine. Every table and column reads the same after a run against each
// of them as before it.
func TestPathTableImmutableUnderAdversaries(t *testing.T) {
	const byz = 1
	g := graph.Fig1a()
	inputs := []float64{0.1, 3.9, 1.3, 2.7, 0.6}
	for _, kind := range adversary.Adversaries() {
		proto, err := bw.NewProto(g, 1, 4, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		handlers := make([]sim.Handler, g.N())
		for i := range handlers {
			m, err := bw.NewMachine(proto, i, inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			handlers[i] = m
		}
		handlers[byz], err = adversary.BuildHandler(byz, adversary.Spec{Kind: kind}, handlers[byz], adversary.NodeSeed(9, byz))
		if err != nil {
			t.Fatal(err)
		}
		before := bw.PathTableChecksum(proto)
		r := execute(t, g, handlers, transport.NewRandomPolicy(9))
		if _, all := r.Outputs(g.Nodes().Remove(byz)); !all {
			t.Errorf("%s: an honest node did not decide", kind)
		}
		if after := bw.PathTableChecksum(proto); after != before {
			t.Errorf("%s: the path tables changed during the run (%x -> %x)", kind, before, after)
		}
	}
}
