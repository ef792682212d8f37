// The goroutine-per-node reference: the message-passing execution model the
// simulator started with, kept as the thing the single delivery loop is
// checked against. A run whose machines each execute on their own goroutine
// must match the run over the bare machines byte for byte — trace, outputs,
// vectors, steps and sends.
package repro_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/sim"
	"repro/internal/transport"
)

// goroutineNode runs the wrapped machine's Start and Deliver on the node's
// own goroutine, into the node's own Outbox, and replays the collected
// sends into the caller's.
type goroutineNode struct {
	repro.Handler
	calls chan func(*sim.Outbox)
	sent  chan []transport.Message
}

// inGoroutine wraps h; the node goroutine exits with the test.
func inGoroutine(t testing.TB, g *repro.Graph, h repro.Handler) *goroutineNode {
	n := &goroutineNode{Handler: h, calls: make(chan func(*sim.Outbox)), sent: make(chan []transport.Message)}
	box := sim.NewCollector(h.ID(), g)
	go func() {
		for call := range n.calls {
			box.Reset()
			call(box)
			n.sent <- box.Messages()
		}
	}()
	t.Cleanup(func() { close(n.calls) })
	return n
}

func (n *goroutineNode) invoke(out *sim.Outbox, call func(*sim.Outbox)) {
	n.calls <- call
	for _, m := range <-n.sent {
		out.Send(m.To, m.Payload)
	}
}

func (n *goroutineNode) Start(out *sim.Outbox) { n.invoke(out, n.Handler.Start) }

func (n *goroutineNode) Deliver(m transport.Message, out *sim.Outbox) {
	n.invoke(out, func(box *sim.Outbox) { n.Handler.Deliver(m, box) })
}

// History and Vector forward the optional decision-shape interfaces the
// result path looks for on a machine.
func (n *goroutineNode) History() []float64 {
	if hp, ok := n.Handler.(interface{ History() []float64 }); ok {
		return hp.History()
	}
	return nil
}

func (n *goroutineNode) Vector() map[int]float64 {
	if vp, ok := n.Handler.(interface{ Vector() map[int]float64 }); ok {
		return vp.Vector()
	}
	return nil
}

// runGoroutineRef runs s on the simulator with every machine — under its
// adversary wrapper, where it has one — on its own goroutine.
func runGoroutineRef(t *testing.T, s repro.Scenario) *repro.Result {
	t.Helper()
	build, err := repro.ProtocolBuilder(s.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(func(g *repro.Graph, inputs []float64, opts repro.Options) (repro.HandlerFactory, error) {
		factory, err := build(g, inputs, opts)
		if err != nil {
			return nil, err
		}
		return func(id int) (repro.Handler, error) {
			h, err := factory(id)
			if err != nil {
				return nil, err
			}
			return inGoroutine(t, g, h), nil
		}, nil
	})
	if err != nil {
		t.Fatalf("%s on the goroutine reference: %v", s.Name, err)
	}
	return res
}

// traced returns s with the trace recorder on and the fifo policy unless
// the scenario names another.
func traced(s repro.Scenario) repro.Scenario {
	s.RecordTrace = true
	if s.Policy == nil {
		s.Policy = &repro.PolicySpec{Name: "fifo"}
	}
	return s
}

// requireSameRun asserts byte-identical traces and identical results.
func requireSameRun(t *testing.T, label string, base, got *repro.Result) {
	t.Helper()
	if base.Trace == "" {
		t.Fatalf("%s: no trace recorded", label)
	}
	if got.Trace != base.Trace {
		t.Fatalf("%s: delivery trace diverged from the bare machines'", label)
	}
	if got.Steps != base.Steps || got.MessagesSent != base.MessagesSent {
		t.Fatalf("%s: accounting diverged: steps %d vs %d, sends %d vs %d",
			label, got.Steps, base.Steps, got.MessagesSent, base.MessagesSent)
	}
	if got.Decided != base.Decided || got.Converged != base.Converged {
		t.Fatalf("%s: verdicts diverged: decided %v/%v converged %v/%v",
			label, got.Decided, base.Decided, got.Converged, base.Converged)
	}
	if !reflect.DeepEqual(got.Outputs, base.Outputs) {
		t.Fatalf("%s: outputs diverged: %v vs %v", label, got.Outputs, base.Outputs)
	}
	if !reflect.DeepEqual(got.Vectors, base.Vectors) {
		t.Fatalf("%s: vectors diverged: %v vs %v", label, got.Vectors, base.Vectors)
	}
}
