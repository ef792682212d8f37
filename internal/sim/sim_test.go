package sim

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/transport"
)

// pingPayload is a trivial test payload carrying a hop count.
type pingPayload int

func (pingPayload) Kind() string { return "PING" }

// echoNode starts by sending a ping to all neighbors and decrements each
// received ping, re-broadcasting until it reaches zero; it outputs the
// number of pings received.
type echoNode struct {
	id       int
	initial  int
	received int
	done     bool
}

func (e *echoNode) ID() int { return e.id }

func (e *echoNode) Start(out *Outbox) {
	if e.initial > 0 {
		out.Broadcast(pingPayload(e.initial))
	}
}

func (e *echoNode) Deliver(msg transport.Message, out *Outbox) {
	e.received++
	if p, ok := msg.Payload.(pingPayload); ok && p > 1 {
		out.Broadcast(p - 1)
	}
	e.done = true
}

func (e *echoNode) Output() (float64, bool) { return float64(e.received), e.done }

func newEchoHandlers(n, initial int) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = &echoNode{id: i, initial: initial}
	}
	return hs
}

func TestRunnerQuiescence(t *testing.T) {
	g := graph.DirectedCycle(3)
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}}, newEchoHandlers(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Each node sends ping(2); receiver re-broadcasts ping(1): 3 + 3 deliveries.
	if r.Steps() != 6 {
		t.Errorf("steps = %d, want 6", r.Steps())
	}
	if r.Stats().Sent != 6 || r.Stats().Delivered != 6 {
		t.Errorf("stats = %+v", r.Stats())
	}
}

func TestRunnerValidation(t *testing.T) {
	g := graph.DirectedCycle(3)
	if _, err := New(Config{}, nil); err == nil {
		t.Error("missing graph accepted")
	}
	if _, err := New(Config{Graph: g}, newEchoHandlers(2, 1)); err == nil {
		t.Error("handler count mismatch accepted")
	}
	bad := newEchoHandlers(3, 1)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := New(Config{Graph: g}, bad); err == nil {
		t.Error("mis-indexed handlers accepted")
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func(seed int64) int {
		g := graph.Clique(4)
		r, err := New(Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, newEchoHandlers(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Steps()
	}
	if run(5) != run(5) {
		t.Error("same seed, different executions")
	}
}

func TestOutboxEnforcesTopology(t *testing.T) {
	g := graph.DirectedCycle(3) // 0->1->2->0
	stats := transport.NewStats()
	o := &Outbox{from: 0, g: g, stats: stats}
	o.Send(1, pingPayload(1)) // legal
	o.Send(2, pingPayload(1)) // no edge 0->2
	if len(o.Messages()) != 1 {
		t.Errorf("messages = %d, want 1", len(o.Messages()))
	}
	if stats.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", stats.Dropped)
	}
	// Ids that name no vertex are dropped and counted too, not a panic.
	o.Send(-1, pingPayload(1))
	if len(o.Messages()) != 1 || stats.Dropped != 2 {
		t.Errorf("Send(-1): messages = %d, dropped = %d, want 1 and 2", len(o.Messages()), stats.Dropped)
	}
	o.Send(graph.MaxNodes, pingPayload(1))
	if len(o.Messages()) != 1 || stats.Dropped != 3 {
		t.Errorf("Send(MaxNodes): messages = %d, dropped = %d, want 1 and 3", len(o.Messages()), stats.Dropped)
	}
	if o.Messages()[0].From != 0 || o.Messages()[0].To != 1 {
		t.Error("message endpoints wrong")
	}
}

func TestCollectorOutbox(t *testing.T) {
	g := graph.Clique(3)
	col := NewCollector(1, g)
	col.Broadcast(pingPayload(1))
	if len(col.Messages()) != 2 {
		t.Errorf("broadcast collected %d messages", len(col.Messages()))
	}
}

// floodNode floods forever to trigger the livelock guard.
type floodNode struct{ id int }

func (f *floodNode) ID() int           { return f.id }
func (f *floodNode) Start(out *Outbox) { out.Broadcast(pingPayload(1)) }
func (f *floodNode) Deliver(_ transport.Message, out *Outbox) {
	out.Broadcast(pingPayload(1))
}
func (f *floodNode) Output() (float64, bool) { return 0, false }

func TestLivelockGuard(t *testing.T) {
	g := graph.Clique(3)
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}, MaxSteps: 100},
		[]Handler{&floodNode{0}, &floodNode{1}, &floodNode{2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); !errors.Is(err, ErrLivelock) {
		t.Errorf("want ErrLivelock, got %v", err)
	}
}

func TestStopWhen(t *testing.T) {
	g := graph.Clique(3)
	r, err := New(Config{
		Graph:    g,
		Policy:   transport.FIFOPolicy{},
		StopWhen: func(r *Runner) bool { return r.Steps() >= 2 },
	}, newEchoHandlers(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Steps() != 2 {
		t.Errorf("steps = %d, want 2", r.Steps())
	}
}

func TestHoldReleaseOnQuiescence(t *testing.T) {
	g := graph.DirectedCycle(3)
	hold := transport.HoldEdges(map[[2]int]bool{{0, 1}: true})
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}, Hold: hold},
		newEchoHandlers(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// All messages, including the held one, must eventually be delivered
	// (delays are finite).
	if r.Stats().Delivered != r.Stats().Sent {
		t.Errorf("delivered %d of %d", r.Stats().Delivered, r.Stats().Sent)
	}
	if !hold.Released() {
		t.Error("hold never released")
	}
}

func TestReleaseWhenPredicate(t *testing.T) {
	g := graph.DirectedCycle(3)
	hold := transport.HoldEdges(map[[2]int]bool{{0, 1}: true})
	released := false
	r, err := New(Config{
		Graph:  g,
		Policy: transport.FIFOPolicy{},
		Hold:   hold,
		ReleaseWhen: func(r *Runner) bool {
			released = true
			return true
		},
	}, newEchoHandlers(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !released || !hold.Released() {
		t.Error("ReleaseWhen not honored")
	}
}

func TestOutputsCollection(t *testing.T) {
	g := graph.Clique(3)
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}}, newEchoHandlers(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.AllOutput(graph.SetOf(0, 1, 2)) {
		t.Error("nodes decided before running")
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs, all := r.Outputs(graph.SetOf(0, 1, 2))
	if !all || len(outs) != 3 {
		t.Errorf("outputs = %v all=%v", outs, all)
	}
	if !r.AllOutput(graph.SetOf(0, 1, 2)) {
		t.Error("AllOutput false after run")
	}
}

// outboxSpy records the Outbox pointers and pre-invocation lengths it sees,
// pinning the runner contract that outboxes are reused across invocations
// and arrive empty each time.
type outboxSpy struct {
	echoNode
	boxes []*Outbox
	lens  []int
}

func (s *outboxSpy) Start(out *Outbox) {
	s.boxes = append(s.boxes, out)
	s.lens = append(s.lens, len(out.Messages()))
	s.echoNode.Start(out)
}

func (s *outboxSpy) Deliver(msg transport.Message, out *Outbox) {
	s.boxes = append(s.boxes, out)
	s.lens = append(s.lens, len(out.Messages()))
	s.echoNode.Deliver(msg, out)
}

// TestOutboxReuseAcrossInvocations: the same Outbox is handed to every
// invocation (the runner shares one across all handlers, the goroutine
// reference keeps one per node), and it must always arrive drained — the
// reuse the Handler contract permits and the batching refactor relies on.
func TestOutboxReuseAcrossInvocations(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		name := "inline"
		if wrap {
			name = "goroutine"
		}
		t.Run(name, func(t *testing.T) {
			g := graph.Clique(3)
			spies := make([]*outboxSpy, g.N())
			hs := make([]Handler, g.N())
			for i := range hs {
				spies[i] = &outboxSpy{echoNode: echoNode{id: i, initial: 3}}
				hs[i] = spies[i]
			}
			if wrap {
				hs = inGoroutines(t, g, hs)
			}
			r, err := New(Config{Graph: g, Policy: transport.NewRandomPolicy(3)}, hs)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			for i, spy := range spies {
				if len(spy.boxes) < 2 {
					t.Fatalf("node %d saw %d invocations", i, len(spy.boxes))
				}
				for j, l := range spy.lens {
					if l != 0 {
						t.Errorf("node %d invocation %d: outbox arrived with %d stale messages", i, j, l)
					}
				}
				// Reuse: a node's invocations all see one Outbox instance.
				for _, b := range spy.boxes[1:] {
					if b != spy.boxes[0] {
						t.Fatalf("node %d: outbox instance changed between invocations", i)
					}
				}
			}
		})
	}
}

// AllOutput reports whether every handler in the set has produced output.
func (r *Runner) AllOutput(set graph.Set) bool {
	ok := true
	set.ForEach(func(v int) bool {
		if _, done := r.handlers[v].Output(); !done {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Trace returns the recorded delivery trace (empty unless
// Config.RecordTrace was set).
func (r *Runner) Trace() []transport.Message { return r.trace }
