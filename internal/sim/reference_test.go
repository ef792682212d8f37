package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/transport"
)

// goroutineNode is the message-passing reference model the delivery loop is
// checked against: the wrapped handler's Start and Deliver run on the node's
// own goroutine, into the node's own Outbox, and the collected sends are
// replayed into the caller's. A run over wrapped handlers must match the run
// over the bare ones delivery for delivery.
type goroutineNode struct {
	Handler
	calls chan func(*Outbox)
	sent  chan []transport.Message
}

// inGoroutines wraps every handler; the node goroutines exit with the test.
func inGoroutines(t testing.TB, g *graph.Graph, hs []Handler) []Handler {
	wrapped := make([]Handler, len(hs))
	for i, h := range hs {
		n := &goroutineNode{Handler: h, calls: make(chan func(*Outbox)), sent: make(chan []transport.Message)}
		box := NewCollector(h.ID(), g)
		go func() {
			for call := range n.calls {
				box.Reset()
				call(box)
				n.sent <- box.Messages()
			}
		}()
		t.Cleanup(func() { close(n.calls) })
		wrapped[i] = n
	}
	return wrapped
}

func (n *goroutineNode) invoke(out *Outbox, call func(*Outbox)) {
	n.calls <- call
	for _, m := range <-n.sent {
		out.Send(m.To, m.Payload)
	}
}

func (n *goroutineNode) Start(out *Outbox) { n.invoke(out, n.Handler.Start) }

func (n *goroutineNode) Deliver(m transport.Message, out *Outbox) {
	n.invoke(out, func(box *Outbox) { n.Handler.Deliver(m, box) })
}

// runEcho executes the echo workload — over goroutine-wrapped handlers when
// wrap is set — and returns the trace, steps and per-node outputs.
func runEcho(t *testing.T, wrap bool, seed int64) (string, int, map[int]float64) {
	t.Helper()
	g := graph.Clique(4)
	hs := newEchoHandlers(4, 3)
	if wrap {
		hs = inGoroutines(t, g, hs)
	}
	r, err := New(Config{
		Graph:       g,
		Policy:      transport.NewRandomPolicy(seed),
		RecordTrace: true,
	}, hs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs, all := r.Outputs(g.Nodes())
	if !all {
		t.Fatal("echo nodes undecided")
	}
	return r.TraceString(), r.Steps(), outs
}

// TestEngineEquivalence is the sim-level half of the reference-equivalence
// guarantee: for the same seed and policy, direct handler calls and the
// goroutine-per-node reference must produce byte-identical delivery traces
// and identical outputs.
func TestEngineEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		inTrace, inSteps, inOuts := runEcho(t, false, seed)
		goTrace, goSteps, goOuts := runEcho(t, true, seed)
		if inTrace != goTrace {
			t.Fatalf("seed %d: runs diverged:\ndirect:\n%s\ngoroutine:\n%s", seed, inTrace, goTrace)
		}
		if inSteps != goSteps {
			t.Fatalf("seed %d: steps %d vs %d", seed, inSteps, goSteps)
		}
		for id, x := range inOuts {
			if goOuts[id] != x {
				t.Fatalf("seed %d: node %d output %v vs %v", seed, id, x, goOuts[id])
			}
		}
	}
}

// TestTraceRecording checks that traces are recorded only on request and
// that repeated runs of the same seed yield the same trace bytes.
func TestTraceRecording(t *testing.T) {
	g := graph.Clique(3)
	r, err := New(Config{Graph: g, Policy: transport.FIFOPolicy{}}, newEchoHandlers(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.Trace()) != 0 || r.TraceString() != "" {
		t.Error("trace recorded without RecordTrace")
	}

	a, _, _ := runEcho(t, false, 11)
	b, _, _ := runEcho(t, false, 11)
	if a == "" || a != b {
		t.Error("same-seed traces differ (or empty)")
	}
}
