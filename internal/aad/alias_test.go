package aad

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// readyQuorum hands m a READY for (tag, origin, v) from every other node —
// what it would see once the rest of the clique has settled that slot.
func readyQuorum(m *Machine, out *sim.Outbox, tag string, origin int, v float64) {
	for from := 0; from < m.n; from++ {
		if from == m.id {
			continue
		}
		m.Deliver(transport.Message{From: from, To: m.id, Payload: rbc.Msg{
			Phase: rbc.PhaseReady, Origin: origin, Tag: tag, Content: Num(v)}}, out)
	}
}

// reportedValue returns the entry for origin in the round-1 report m
// broadcast into out.
func reportedValue(t *testing.T, out *sim.Outbox, origin int) float64 {
	t.Helper()
	for _, sent := range out.Messages() {
		msg := sent.Payload.(rbc.Msg)
		if msg.Phase != rbc.PhaseInit || msg.Tag != "r1/report" {
			continue
		}
		for _, e := range msg.Content.(Report) {
			if e.Origin == origin {
				return e.Value
			}
		}
		t.Fatalf("report %v has no entry for origin %d", msg.Content, origin)
	}
	t.Fatal("no round-1 report was broadcast")
	return 0
}

// TestAADTagAliasesAreOneSlot: a faulty origin 3 gets its round-1 value
// settled twice, as 0 under "r1/value" and as 4 under a second spelling of
// round 1. Two honest machines that see the two quorums in opposite orders
// must still report the same value for origin 3 — with two slots each kept
// whichever came first, their reports could never be witnessed by each
// other and the round never ended.
func TestAADTagAliasesAreOneSlot(t *testing.T) {
	const n, f = 4, 1
	for _, alias := range []string{"r01/value", "r+1/value"} {
		var got [2]float64
		for id := 0; id < 2; id++ {
			m, err := NewMachine(n, f, id, 3, float64(id))
			if err != nil {
				t.Fatal(err)
			}
			out := sim.NewCollector(id, graph.Clique(n))
			m.Start(out)
			if id == 0 {
				readyQuorum(m, out, "r1/value", 3, 0)
				readyQuorum(m, out, alias, 3, 4)
			} else {
				readyQuorum(m, out, alias, 3, 4)
				readyQuorum(m, out, "r1/value", 3, 0)
			}
			// Two more values make n−f and trigger the report.
			readyQuorum(m, out, "r1/value", 2, 2)
			readyQuorum(m, out, "r1/value", 1-id, float64(1-id))
			got[id] = reportedValue(t, out, 3)
			if d := m.bcast.Dropped(); d != n-1 {
				t.Errorf("%s: machine %d dropped %d frames, want the alias's %d", alias, id, d, n-1)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: machines report %g and %g for origin 3 in round 1", alias, got[0], got[1])
		}
	}
}

// TestAADTagIndex: exactly the canonical spelling of an in-range round has
// a slot, and distinct tags never share one.
func TestAADTagIndex(t *testing.T) {
	m, err := NewMachine(4, 1, 0, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]string{}
	for r := 1; r <= 12; r++ {
		for kind := 0; kind < tagsPerRound; kind++ {
			tag := slotTag(r, kind)
			ti := m.tagIndex(tag)
			if ti != (r-1)*tagsPerRound+kind {
				t.Errorf("tagIndex(%q) = %d, want %d", tag, ti, (r-1)*tagsPerRound+kind)
			}
			if prev, dup := seen[ti]; dup {
				t.Errorf("%q and %q share slot index %d", prev, tag, ti)
			}
			seen[ti] = tag
		}
	}
	for _, tag := range []string{
		"", "r", "r/value", "r0/value", "r13/value", "r01/value", "r+1/value", "r-1/value", "r 1/value",
		"r1/value ", "r1/valu", "r1/VALUE", "r1value", "R1/value", "x1/value", "r1/", "r1",
		"r99999999999999999999999/value", "r1/value/report", "acs/v",
	} {
		if ti := m.tagIndex(tag); ti >= 0 {
			t.Errorf("tagIndex(%q) = %d, want no slot", tag, ti)
		}
	}
}

// nanOrigin is a faulty vertex that takes part in nothing except reliably
// broadcasting NaN as its round-1 value.
type nanOrigin struct{ id int }

func (a *nanOrigin) ID() int { return a.id }
func (a *nanOrigin) Start(out *sim.Outbox) {
	out.Broadcast(rbc.Msg{Phase: rbc.PhaseInit, Origin: a.id, Tag: "r1/value", Content: Num(math.NaN())})
}
func (a *nanOrigin) Deliver(transport.Message, *sim.Outbox) {}
func (a *nanOrigin) Output() (float64, bool)                { return 0, false }

// TestAADWitnessesMatchNaN: a NaN that rbc delivered is the same NaN in
// every honest report, so it must not stop those reports from being
// witnessed (a float compare would: NaN != NaN) — and trimming keeps it out
// of the result.
func TestAADWitnessesMatchNaN(t *testing.T) {
	const n, f, rounds = 4, 1, 3
	g := graph.Clique(n)
	for seed := int64(0); seed < 10; seed++ {
		handlers := make([]sim.Handler, n)
		for i := 0; i < n-1; i++ {
			m, err := NewMachine(n, f, i, rounds, float64(i))
			if err != nil {
				t.Fatal(err)
			}
			handlers[i] = m
		}
		handlers[n-1] = &nanOrigin{id: n - 1}
		r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		outs, all := r.Outputs(graph.SetOf(0, 1, 2))
		if !all {
			t.Fatalf("seed %d: honest nodes did not all decide: %v", seed, outs)
		}
		for id, x := range outs {
			if !(x >= 0 && x <= 2) {
				t.Errorf("seed %d: node %d decided %g outside the honest range [0,2]", seed, id, x)
			}
		}
	}
}

// TestAADDeliverAllocBudget: a frame that completes no broadcast costs the
// machine nothing beyond rbc's own (zero) steady-state work.
func TestAADDeliverAllocBudget(t *testing.T) {
	const n, f, runs = 100, 33, 30
	m, err := NewMachine(n, f, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, graph.Clique(n))
	m.Start(out)
	sent := len(out.Messages())
	msgs := make([]transport.Message, runs+2)
	for i := range msgs {
		msgs[i] = transport.Message{From: i + 1, To: 0, Payload: rbc.Msg{
			Phase: rbc.PhaseEcho, Origin: 5, Tag: "r1/value", Content: Num(2.5)}}
	}
	m.Deliver(msgs[0], out)
	next := 1
	got := testing.AllocsPerRun(runs, func() {
		m.Deliver(msgs[next], out)
		next++
	})
	if got != 0 {
		t.Errorf("Deliver allocates %.2f per frame, want 0", got)
	}
	if len(out.Messages()) != sent {
		t.Errorf("a threshold was crossed inside the measured calls")
	}
}
