package crashapprox_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cond"
	"repro/internal/crashapprox"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

func run(t *testing.T, g *graph.Graph, f int, inputs []float64, k, eps float64,
	crashed map[int]int, seed int64) map[int]float64 {
	t.Helper()
	proto, err := crashapprox.NewProto(g, f, k, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	honest := graph.EmptySet
	handlers := make([]sim.Handler, g.N())
	for i := 0; i < g.N(); i++ {
		m, err := crashapprox.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if after, bad := crashed[i]; bad {
			if after < 0 {
				handlers[i] = &adversary.Silent{NodeID: i}
			} else {
				handlers[i] = &adversary.Crash{Inner: m, AfterDeliveries: after, FinalSends: 1}
			}
		} else {
			handlers[i] = m
			honest = honest.Add(i)
		}
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
		t.Fatalf("honest nodes did not decide: %v", outs)
	}
	t.Logf("%s outputs=%v steps=%d", g, outs, r.Steps())
	return outs
}

func check(t *testing.T, outs map[int]float64, eps, lo, hi float64) {
	t.Helper()
	min, max := math.Inf(1), math.Inf(-1)
	for _, x := range outs {
		min, max = math.Min(min, x), math.Max(max, x)
	}
	if max-min >= eps {
		t.Errorf("convergence violated: %g >= %g", max-min, eps)
	}
	if min < lo || max > hi {
		t.Errorf("validity violated: [%g,%g] not in [%g,%g]", min, max, lo, hi)
	}
}

// twoReachGraph returns a digraph verified to satisfy 2-reach for f=1: the
// circulant on 5 nodes with offsets {1,2}.
func twoReachGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.Circulant(5, 1, 2)
	if ok, w := cond.Check2Reach(g, 1); !ok {
		t.Fatalf("test graph must satisfy 2-reach: witness %v", w)
	}
	return g
}

func TestCrashApproxHonest(t *testing.T) {
	g := twoReachGraph(t)
	outs := run(t, g, 1, []float64{0, 1, 2, 3, 4}, 4, 0.2, nil, 3)
	check(t, outs, 0.2, 0, 4)
}

func TestCrashApproxSilentNode(t *testing.T) {
	g := twoReachGraph(t)
	outs := run(t, g, 1, []float64{0, 1, 2, 3, 4}, 4, 0.2, map[int]int{2: -1}, 5)
	// Honest inputs 0,1,3,4.
	check(t, outs, 0.2, 0, 4)
}

func TestCrashApproxMidwayCrash(t *testing.T) {
	g := twoReachGraph(t)
	for seed := int64(0); seed < 10; seed++ {
		outs := run(t, g, 1, []float64{4, 0, 2, 1, 3}, 4, 0.2, map[int]int{4: int(seed) * 3}, seed)
		check(t, outs, 0.2, 0, 4)
	}
}

func TestCrashApproxCliqueMatchesTheory(t *testing.T) {
	// On a clique, 2-reach needs n > 2f: K3 with f=1 works.
	g := graph.Clique(3)
	if ok, _ := cond.Check2Reach(g, 1); !ok {
		t.Fatal("K3 should satisfy 2-reach for f=1")
	}
	outs := run(t, g, 1, []float64{0, 1, 2}, 2, 0.1, map[int]int{1: 4}, 7)
	check(t, outs, 0.1, 0, 2)
}

func TestCrashApproxHalving(t *testing.T) {
	g := twoReachGraph(t)
	proto, err := crashapprox.NewProto(g, 1, 8, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []float64{0, 8, 4, 2, 6}
	machines := make([]*crashapprox.Machine, g.N())
	handlers := make([]sim.Handler, g.N())
	for i := range handlers {
		machines[i], err = crashapprox.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = machines[i]
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(1)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	prev := 8.0
	for round := 0; ; round++ {
		min, max := math.Inf(1), math.Inf(-1)
		complete := true
		for _, m := range machines {
			h := m.History()
			if len(h) <= round {
				complete = false
				break
			}
			min, max = math.Min(min, h[round]), math.Max(max, h[round])
		}
		if !complete {
			break
		}
		if max-min > prev/2+1e-12 {
			t.Errorf("round %d: spread %g > half of %g", round, max-min, prev)
		}
		prev = max - min
	}
	if prev >= 0.1 {
		t.Errorf("final spread %g >= eps", prev)
	}
}

func TestCrashApproxRejectsBadParams(t *testing.T) {
	g := graph.Clique(3)
	if _, err := crashapprox.NewProto(g, -1, 1, 0.1, 0); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := crashapprox.NewProto(g, 1, 0, 0.1, 0); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := crashapprox.NewProto(g, 1, 1, 0, 0); err == nil {
		t.Error("zero eps accepted")
	}
	if _, err := crashapprox.NewProto(g, 1, math.NaN(), 0.1, 0); err == nil {
		t.Error("NaN range accepted")
	}
	if _, err := crashapprox.NewProto(g, 1, 1, math.NaN(), 0); err == nil {
		t.Error("NaN eps accepted")
	}
}

// TestCrashApproxDropsForgedEntries: a VAL names its path by an entry of the
// sender's path table, and the door admits only an entry of a real
// in-neighbour's table that the receiver extends to a simple path. An id of
// -1, of MaxInt32 or just past the sender's table, and a sender that is no
// in-neighbour, each cause no relay and leave the machine as it was — in the
// round it is in and in one it has not reached.
func TestCrashApproxDropsForgedEntries(t *testing.T) {
	g := twoReachGraph(t)
	proto, err := crashapprox.NewProto(g, 1, 4, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	started := func() *crashapprox.Machine {
		m, err := crashapprox.NewMachine(proto, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(sim.NewCollector(0, g))
		return m
	}
	const from, stranger = 4, 1
	if !g.HasEdge(from, 0) || g.HasEdge(stranger, 0) {
		t.Fatalf("%s: want %d an in-neighbour of 0 and %d not", g, from, stranger)
	}
	sender, err := graph.NewPathTables(g, true, 0).Table(from)
	if err != nil {
		t.Fatal(err)
	}
	forged := []struct {
		from  int
		entry int32
	}{
		{from, -1}, {from, math.MaxInt32}, {from, int32(len(sender.Head))},
		{stranger, 0}, {0, 0}, {g.N(), 0},
	}
	want := started()
	for _, round := range []int{1, 2} {
		for _, fg := range forged {
			m, out := started(), sim.NewCollector(0, g)
			m.Deliver(transport.Message{From: fg.from, To: 0, Payload: crashapprox.ValPayload{Round: round, Value: 3, Entry: fg.entry}}, out)
			if len(out.Messages()) != 0 {
				t.Errorf("round %d entry %d from %d: relayed %d messages", round, fg.entry, fg.from, len(out.Messages()))
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("round %d entry %d from %d: the machine's state changed", round, fg.entry, fg.from)
			}
		}
	}
	// The same door admits and relays the sender's own value.
	m, out := started(), sim.NewCollector(0, g)
	m.Deliver(transport.Message{From: from, To: 0, Payload: crashapprox.ValPayload{Round: 1, Value: 3, Entry: 0}}, out)
	if len(out.Messages()) == 0 || reflect.DeepEqual(m, want) {
		t.Errorf("an honest in-neighbour's own value was dropped")
	}
}
