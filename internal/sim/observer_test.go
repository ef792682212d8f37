package sim

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/transport"
)

// recorder keeps every observed event.
type recorder struct{ events []Event }

func (r *recorder) Observe(e Event) { r.events = append(r.events, e) }

func (r *recorder) byType(t EventType) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

func TestObserverDeliverEvents(t *testing.T) {
	g := graph.DirectedCycle(3)
	rec := &recorder{}
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}, Observer: rec},
		newEchoHandlers(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	delivers := rec.byType(EventDeliver)
	if len(delivers) != r.Steps() {
		t.Fatalf("observed %d deliveries, runner reports %d steps", len(delivers), r.Steps())
	}
	for i, e := range delivers {
		if e.Step != i+1 {
			t.Errorf("delivery %d has step %d", i, e.Step)
		}
		if e.Message.Payload.Kind() != "PING" {
			t.Errorf("delivery %d kind = %q", i, e.Message.Payload.Kind())
		}
		if !g.HasEdge(e.Message.From, e.Message.To) {
			t.Errorf("delivery %d over non-edge %d->%d", i, e.Message.From, e.Message.To)
		}
	}
}

// TestObserverDoesNotPerturbSchedule pins the zero-interference guarantee:
// the delivery trace with an observer attached is byte-identical to the
// trace without one.
func TestObserverDoesNotPerturbSchedule(t *testing.T) {
	run := func(obs Observer) string {
		r, err := New(Config{
			Graph:       graph.Clique(4),
			Policy:      transport.NewRandomPolicy(11),
			RecordTrace: true,
			Observer:    obs,
		}, newEchoHandlers(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.TraceString()
	}
	bare := run(nil)
	observed := run(&recorder{})
	if bare == "" || bare != observed {
		t.Fatal("observer perturbed the delivery schedule")
	}
}

func TestObserverHoldAndReleaseEvents(t *testing.T) {
	g := graph.DirectedCycle(3)
	hold := transport.HoldEdges(map[[2]int]bool{{0, 1}: true})
	rec := &recorder{}
	r, err := New(Config{
		Graph:    g,
		Policy:   transport.FIFOPolicy{},
		Hold:     hold,
		Observer: rec,
	}, newEchoHandlers(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	holds := rec.byType(EventHold)
	if len(holds) != 1 {
		t.Fatalf("hold events = %d, want 1 (the 0->1 start ping)", len(holds))
	}
	if holds[0].Message.From != 0 || holds[0].Message.To != 1 {
		t.Errorf("held message = %s", holds[0].Message)
	}
	releases := rec.byType(EventRelease)
	if len(releases) != 1 || releases[0].Count != 1 {
		t.Fatalf("release events = %+v, want one with Count=1", releases)
	}
	// The release happens at quiescence, after the two unheld deliveries.
	if releases[0].Step != 2 {
		t.Errorf("release at step %d, want 2", releases[0].Step)
	}
}

// historyNode records one history value per delivery, exercising EventRound.
type historyNode struct {
	echoNode
	hist []float64
}

func (h *historyNode) Deliver(msg transport.Message, out *Outbox) {
	h.echoNode.Deliver(msg, out)
	h.hist = append(h.hist, float64(h.received))
}

func (h *historyNode) History() []float64 { return h.hist }

func TestObserverRoundEvents(t *testing.T) {
	g := graph.DirectedCycle(3)
	rec := &recorder{}
	handlers := make([]Handler, 3)
	for i := range handlers {
		handlers[i] = &historyNode{echoNode: echoNode{id: i, initial: 2}}
	}
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}, Observer: rec}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := rec.byType(EventRound)
	// 6 deliveries, each appending one history entry on the delivered-to node.
	if len(rounds) != 6 {
		t.Fatalf("round events = %d, want 6", len(rounds))
	}
	perNode := map[int][]float64{}
	lastRound := map[int]int{}
	for _, e := range rounds {
		if e.Round != lastRound[e.Node]+1 {
			t.Errorf("node %d round %d out of order (last %d)", e.Node, e.Round, lastRound[e.Node])
		}
		lastRound[e.Node] = e.Round
		perNode[e.Node] = append(perNode[e.Node], e.Value)
	}
	for i, h := range handlers {
		if want := h.(*historyNode).History(); !reflect.DeepEqual(perNode[i], want) {
			t.Errorf("node %d streamed %v, final history %v", i, perNode[i], want)
		}
	}
}

func TestObserverFuncAndEventNames(t *testing.T) {
	var a int
	ObserverFunc(func(Event) { a++ }).Observe(Event{Type: EventDeliver})
	if a != 1 {
		t.Errorf("ObserverFunc called %d times, want 1", a)
	}
	if EventDeliver.String() != "deliver" || EventRound.String() != "round" {
		t.Error("EventType.String misnamed")
	}
	if EventType(99).String() == "" {
		t.Error("unknown EventType should still render")
	}
}
