package node_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// memOut records transmitted frames.
type memOut struct {
	mu     sync.Mutex
	frames []struct {
		to    int
		frame []byte
	}
}

func (o *memOut) Send(to int, frame []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.frames = append(o.frames, struct {
		to    int
		frame []byte
	}{to, frame})
	return nil
}

func (o *memOut) sent() []struct {
	to    int
	frame []byte
} {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append(o.frames[:0:0], o.frames...)
}

func encode(t *testing.T, m transport.Message) []byte {
	t.Helper()
	b, err := wire.EncodeInstanceMessage(0, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runNode drives a node from Run's standing runner until the returned
// cancel is called.
func runNode(t *testing.T, n *node.Node) (cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- n.Run(ctx) }()
	return func() {
		stop()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("node run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("node did not shut down")
		}
	}
}

// post hands the node one read burst from peer from, the way a transport
// reader does.
func post(t *testing.T, n *node.Node, from int, frames ...[]byte) {
	t.Helper()
	if !n.Post(from, frames) {
		t.Fatal("node refused a post")
	}
}

// push hands Run's runner one slab.
func push(t *testing.T, n *node.Node, slab []node.Inbound) {
	t.Helper()
	if !n.PushBatch(context.Background(), slab) {
		t.Fatal("node refused an inbox slab")
	}
}

// TestNodeRunsIterativeMachine drives a 2-node iterative run by hand: the
// node under test is vertex 0 of a 2-clique with f=0, its peer's frames are
// injected directly, and the node must decide on the averaged value.
func TestNodeRunsIterativeMachine(t *testing.T) {
	g := graph.Clique(2)
	h, err := iterative.NewMachine(g, 0, 0, 1, 0, nil) // one round, input 0
	if err != nil {
		t.Fatal(err)
	}
	out := &memOut{}
	decided := make(chan float64, 1)
	n, err := node.New(node.Config{
		ID: 0, Graph: g, Handler: h, Out: out,
		OnDecide: func(_ int, x float64) { decided <- x },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(nil)

	// Peer 1 reports value 1 for round 1; with inputs {0, 1} the trimmed
	// mean (f=0) is 0.5. The poster finds the node idle and runs it.
	post(t, n, 1, encode(t, transport.Message{
		From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1},
	}))
	select {
	case x := <-decided:
		if x != 0.5 {
			t.Fatalf("decided %v, want 0.5", x)
		}
	default:
		t.Fatal("node had not decided when the post returned")
	}
	n.Close()

	if x, ok := n.Output(); !ok || x != 0.5 {
		t.Fatalf("Output() = %v, %v", x, ok)
	}
	st := n.Stats()
	if st.Delivered != 1 || st.Sent != 1 || st.ByKind["ITER-VAL"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	sent := out.sent()
	if len(sent) != 1 || sent[0].to != 1 {
		t.Fatalf("sent = %+v, want one frame to node 1", sent)
	}
	_, m, err := wire.DecodeInstanceMessage(sent[0].frame)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Payload.(iterative.ValPayload); !ok || p.Round != 1 || p.Value != 0 {
		t.Fatalf("start frame = %#v", m)
	}
}

// TestNodeDropsForgedFrames checks the reliable-link enforcement: frames
// that are malformed, mis-addressed, sender-spoofed or off-edge never reach
// the handler.
func TestNodeDropsForgedFrames(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(1, 0) // only 1->0 exists
	h, err := iterative.NewMachine(g, 0, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: &memOut{}})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(nil)

	payload := iterative.ValPayload{Round: 1, Value: 9}
	post(t, n, 1,
		[]byte("garbage"),
		// Claimed sender 2 on a frame arriving over the link from 1.
		encode(t, transport.Message{From: 2, To: 0, Payload: payload}),
		// Wrong destination.
		encode(t, transport.Message{From: 1, To: 2, Payload: payload}),
	)
	// Edge 2->0 does not exist.
	post(t, n, 2, encode(t, transport.Message{From: 2, To: 0, Payload: payload}))
	// The genuine frame.
	post(t, n, 1, encode(t, transport.Message{From: 1, To: 0, Payload: payload}))
	n.Close()

	st := n.Stats()
	if st.Malformed != 1 || st.Spoofed != 3 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want 1 malformed, 3 spoofed, 1 delivered", st)
	}
}

// TestNodeObserverSeesDeliveriesAndRounds verifies the event stream.
func TestNodeObserverSeesDeliveriesAndRounds(t *testing.T) {
	g := graph.Clique(2)
	h, err := iterative.NewMachine(g, 0, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []sim.Event
	obs := sim.ObserverFunc(func(e sim.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	decided := make(chan float64, 1)
	n, err := node.New(node.Config{
		ID: 0, Graph: g, Handler: h, Out: &memOut{}, Observer: obs,
		OnDecide: func(_ int, x float64) { decided <- x },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(nil)
	post(t, n, 1, encode(t, transport.Message{
		From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1},
	}))
	<-decided
	n.Close()

	mu.Lock()
	defer mu.Unlock()
	var delivers, rounds int
	for _, e := range events {
		switch e.Type {
		case sim.EventDeliver:
			delivers++
			if e.Message.From != 1 || e.Message.To != 0 || e.Message.Seq != 1 {
				t.Fatalf("deliver event = %+v", e.Message)
			}
		case sim.EventRound:
			rounds++
			if e.Node != 0 || e.Round != 1 || e.Value != 0.5 {
				t.Fatalf("round event = %+v", e)
			}
		}
	}
	if delivers != 1 || rounds != 1 {
		t.Fatalf("got %d delivers, %d rounds; want 1 and 1", delivers, rounds)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	g := graph.Clique(2)
	h, _ := iterative.NewMachine(g, 0, 1, 1, 0, nil)
	cases := []node.Config{
		{}, // no graph
		{Graph: g, ID: 5, Handler: h, Out: &memOut{}}, // id out of range
		{Graph: g, ID: 0, Out: &memOut{}},             // no handler
		{Graph: g, ID: 0, Handler: h, Out: &memOut{}}, // id mismatch (handler is 1)
		{Graph: g, ID: 1, Handler: h},                 // no outbound
	}
	for i, cfg := range cases {
		if _, err := node.New(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

// failOut fails every send — the transport-collapse shutdown path.
type failOut struct{ calls int }

func (o *failOut) Send(int, []byte) error { o.calls++; return errFail }

var errFail = errSentinel{}

type errSentinel struct{}

func (errSentinel) Error() string { return "transport collapsed" }

// TestNodeRunDeliversPushedSlabs: Run's standing runner delivers what
// PushBatch appends — the pusher never runs the node itself — and flushes
// each batch's sends.
func TestNodeRunDeliversPushedSlabs(t *testing.T) {
	g := graph.Clique(2)
	h, err := iterative.NewMachine(g, 0, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	decided := make(chan float64) // unbuffered: a pusher that ran the node would block here
	out := &memOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out,
		OnDecide: func(_ int, x float64) { decided <- x }})
	if err != nil {
		t.Fatal(err)
	}
	stop := runNode(t, n)
	push(t, n, []node.Inbound{{From: 1, Frame: encode(t, transport.Message{
		From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1},
	})}})
	if x := <-decided; x != 0.5 {
		t.Fatalf("decided %v, want 0.5", x)
	}
	stop()
	if st := n.Stats(); st.Delivered != 1 || len(out.sent()) != 1 {
		t.Fatalf("stats %+v, %d frames sent; want 1 delivered and Start's frame", st, len(out.sent()))
	}
}

// TestNodeShutdownWithPendingInbox pins the cancellation half of Run's
// shutdown contract: a node cancelled while frames still sit in its box
// returns promptly and cleanly — pending deliveries are abandoned like
// messages still in flight when a simulator run stops — and a push after
// it is refused, so a pusher can unwind.
func TestNodeShutdownWithPendingInbox(t *testing.T) {
	g := graph.Clique(2)
	h, err := iterative.NewMachine(g, 0, 0, 50, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: &memOut{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- n.Run(ctx) }()

	// Stuff the inbox beyond what one round consumes, then cancel while
	// the backlog is still pending.
	frame := encode(t, transport.Message{From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1}})
	for i := 0; i < 32; i++ {
		push(t, n, []node.Inbound{{From: 1, Frame: frame}})
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("cancelled run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node did not shut down with a pending inbox")
	}
	if n.PushBatch(context.Background(), []node.Inbound{{From: 1, Frame: frame}}) {
		t.Fatal("a stopped node took a push")
	}
}

// TestNodeOutboundFailureStopsRun pins the other half: a send that fails
// surfaces as Run's error — on reliable links a dead
// transport is unsalvageable, not retryable — and the loop stops instead
// of delivering on top of a partial broadcast.
func TestNodeOutboundFailureStopsRun(t *testing.T) {
	g := graph.Clique(2)
	h, err := iterative.NewMachine(g, 0, 0, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := &failOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	// Start sends the round-1 broadcast, which fails immediately.
	err = n.Run(context.Background())
	if err == nil {
		t.Fatal("run with a failing outbound returned nil")
	}
	if out.calls == 0 {
		t.Fatal("outbound never invoked")
	}
}

// TestNodeInstanceEncode pins the instance stamp: a node configured with
// an instance id stamps it into every frame it transmits, while the
// default remains instance 0.
func TestNodeInstanceEncode(t *testing.T) {
	g := graph.Clique(2)
	for _, inst := range []uint64{0, 4242} {
		h, err := iterative.NewMachine(g, 0, 0, 2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := &memOut{}
		n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out, Inst: inst})
		if err != nil {
			t.Fatal(err)
		}
		n.Start(nil)
		n.Close()
		sent := out.sent()
		if len(sent) == 0 {
			t.Fatalf("inst %d: no start traffic", inst)
		}
		for _, f := range sent {
			got, _, err := wire.DecodeFrame(f.frame, nil)
			if err != nil {
				t.Fatalf("inst %d: %v", inst, err)
			}
			if got != inst {
				t.Fatalf("frame stamped with instance %d, want %d", got, inst)
			}
		}
	}
}
