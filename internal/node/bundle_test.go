package node_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/linkfault"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// echoHandler sends perDest messages to every out-neighbour on Start and on
// each delivery, numbering them in Round so receivers can check order, and
// records what it is delivered.
type echoHandler struct {
	id, perDest int
	mu          sync.Mutex
	next        int
	got         []transport.Message
}

func (h *echoHandler) ID() int                 { return h.id }
func (h *echoHandler) Output() (float64, bool) { return 0, false }
func (h *echoHandler) Start(out *sim.Outbox)   { h.send(out) }
func (h *echoHandler) Deliver(m transport.Message, out *sim.Outbox) {
	h.mu.Lock()
	h.got = append(h.got, m)
	h.mu.Unlock()
	h.send(out)
}

func (h *echoHandler) send(out *sim.Outbox) {
	for range h.perDest {
		h.next++
		for _, v := range out.Graph().Out(h.id) {
			out.Send(v, iterative.ValPayload{Round: h.next, Value: float64(v)})
		}
	}
}

func (h *echoHandler) delivered() []transport.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]transport.Message(nil), h.got...)
}

// decodeFrames decodes every recorded frame, per destination, failing the
// test on a malformed one.
func decodeFrames(t *testing.T, out *memOut) (frames map[int]int, msgs map[int][]transport.Message) {
	t.Helper()
	frames, msgs = make(map[int]int), make(map[int][]transport.Message)
	for _, f := range out.sent() {
		_, ms, err := wire.DecodeFrame(f.frame, nil)
		if err != nil {
			t.Fatalf("frame to %d: %v", f.to, err)
		}
		for _, m := range ms {
			if m.To != f.to {
				t.Fatalf("frame sent to %d carries a message to %d", f.to, m.To)
			}
		}
		frames[f.to]++
		msgs[f.to] = append(msgs[f.to], ms...)
	}
	return frames, msgs
}

// ascendingRounds reports whether ms carry strictly ascending rounds: the
// send order, kept within a link.
func ascendingRounds(ms []transport.Message) bool {
	for i := 1; i < len(ms); i++ {
		if ms[i].Payload.(iterative.ValPayload).Round <= ms[i-1].Payload.(iterative.ValPayload).Round {
			return false
		}
	}
	return true
}

// runAndPush runs n, pushes one slab of frames from peer 1 (each a
// one-message frame) and waits until out has recorded want frames.
func runAndPush(t *testing.T, n *node.Node, out *memOut, frames, want int) (stop func()) {
	t.Helper()
	stop = runNode(t, n)
	slab := make([]node.Inbound, frames)
	for i := range slab {
		slab[i] = node.Inbound{From: 1, Frame: encode(t, transport.Message{
			From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: float64(i)}})}
	}
	push(t, n, slab)
	deadline := time.Now().Add(5 * time.Second)
	for len(out.sent()) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return stop
}

// TestNodeBundlesPerSlab pins the flush rule of the event loop: Start's
// sends leave as one frame per destination, and so do all the sends of one
// inbox slab's deliveries, in send order.
func TestNodeBundlesPerSlab(t *testing.T) {
	g := graph.Clique(3)
	h := &echoHandler{id: 0, perDest: 2}
	out := &memOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	const slabFrames = 5
	runAndPush(t, n, out, slabFrames, 4)()

	frames, msgs := decodeFrames(t, out)
	for _, v := range []int{1, 2} {
		// Start's 2 messages in one frame, then 5 deliveries × 2 in one.
		if frames[v] != 2 || len(msgs[v]) != 2+slabFrames*2 || !ascendingRounds(msgs[v]) {
			t.Errorf("to %d: %d frames, %d messages (ascending %v), want 2 frames of 12 in send order",
				v, frames[v], len(msgs[v]), ascendingRounds(msgs[v]))
		}
	}
	if st := n.Stats(); st.Frames != 4 || st.Sent != 24 || st.Delivered != slabFrames {
		t.Errorf("stats = %+v, want 4 frames, 24 sent, %d delivered", st, slabFrames)
	}
}

// TestNodeDeliverFlushesPerFrame pins the service tier's entry: Start and
// each Deliver transmit their sends before they return, one frame per
// destination, and a multi-message frame's messages reach the handler one
// invocation each, in order.
func TestNodeDeliverFlushesPerFrame(t *testing.T) {
	g := graph.Clique(3)
	h := &echoHandler{id: 0, perDest: 3}
	out := &memOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out, Inst: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if got := len(out.sent()); got != 2 {
		t.Fatalf("Start wrote %d frames, want one per destination", got)
	}
	in := make([]transport.Message, 3)
	for i := range in {
		in[i] = transport.Message{From: 2, To: 0, Payload: iterative.ValPayload{Round: i + 1, Value: 7}}
	}
	frame, k, err := wire.AppendFrame(wire.GetBuf(), 9, in)
	if err != nil || k != len(in) {
		t.Fatalf("encode: %d of %d, %v", k, len(in), err)
	}
	if err := n.Deliver(node.Inbound{From: 2, Frame: frame}); err != nil {
		t.Fatal(err)
	}
	got := h.delivered()
	if len(got) != len(in) || !ascendingRounds(got) {
		t.Fatalf("handler saw %d messages (ascending %v), want the frame's %d in order", len(got), ascendingRounds(got), len(in))
	}
	frames, msgs := decodeFrames(t, out)
	for _, v := range []int{1, 2} {
		// Start's 3 messages in one frame, the 3 deliveries' 9 in another.
		if frames[v] != 2 || len(msgs[v]) != 12 || !ascendingRounds(msgs[v]) {
			t.Errorf("to %d: %d frames, %d messages, want 2 carrying 12 in send order", v, frames[v], len(msgs[v]))
		}
	}
	// A forged multi-message frame counts one spoof per message.
	forged, _, err := wire.AppendFrame(wire.GetBuf(), 9, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver(node.Inbound{From: 1, Frame: forged}); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Spoofed != len(in) || st.Delivered != len(in) {
		t.Errorf("stats = %+v, want %d spoofed and %d delivered", st, len(in), len(in))
	}
}

// TestNodeLinkFaults pins the node-side enforcement of the link-fault
// rules, one fate per message before it is sent or held: drops never reach
// the transport, a duplicated message leaves twice as two copies — twice
// within Start's frame and twice within the slab's — and delayed copies
// arrive after (not before) their delay, each in a frame of its own with a
// buffer of its own; a message no copy of which was held leaves nothing
// behind for the next flush.
func TestNodeLinkFaults(t *testing.T) {
	g := graph.Clique(5)
	set, err := linkfault.New(g, []linkfault.Rule{
		{Kind: linkfault.KindDrop, Edges: [][2]int{{0, 1}}},
		{Kind: linkfault.KindDuplicate, Edges: [][2]int{{0, 2}, {0, 4}}},
		{Kind: linkfault.KindDelay, Edges: [][2]int{{0, 3}, {0, 4}}, Params: map[string]float64{"amount": 200}},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{id: 0, perDest: 2}
	out := &memOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out, LinkFaults: set})
	if err != nil {
		t.Fatal(err)
	}
	// Start sends rounds 1-2 to every out-neighbour and the slab's one
	// delivery rounds 3-4. The immediate frames: Start's one bundle to
	// vertex 2, then the slab's one.
	stop := runAndPush(t, n, out, 1, 2)
	frames, msgs := decodeFrames(t, out)
	if frames[3] != 0 || frames[4] != 0 {
		t.Errorf("delayed frames arrived immediately (%d, %d)", frames[3], frames[4])
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(out.sent()) < 2+4+8 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	frames, msgs = decodeFrames(t, out)
	if frames[1] != 0 {
		t.Errorf("dropped edge delivered %d frames", frames[1])
	}
	var rounds []int
	for _, m := range msgs[2] {
		rounds = append(rounds, m.Payload.(iterative.ValPayload).Round)
	}
	if frames[2] != 2 || !slices.Equal(rounds, []int{1, 1, 2, 2, 3, 3, 4, 4}) {
		t.Errorf("duplicated edge: %d frames carrying rounds %v, want 2 carrying 1 1 2 2 3 3 4 4", frames[2], rounds)
	}
	if frames[3] != 4 || len(msgs[3]) != 4 {
		t.Errorf("delayed edge: %d frames of %d messages after the delay, want 4 of 1", frames[3], len(msgs[3]))
	}
	// Duplicated and delayed: each copy its own frame, never a shared
	// buffer (ownership of each travels with its Send).
	if frames[4] != 8 || len(msgs[4]) != 8 {
		t.Errorf("duplicated delayed edge: %d frames of %d messages, want 8 of 1", frames[4], len(msgs[4]))
	}
	var buf4 [][]byte
	for _, f := range out.sent() {
		if f.to == 4 {
			buf4 = append(buf4, f.frame)
		}
	}
	for i := range buf4 {
		for j := i + 1; j < len(buf4); j++ {
			if &buf4[i][:1][0] == &buf4[j][:1][0] {
				t.Errorf("delayed copies %d and %d share a buffer", i, j)
			}
		}
	}
	dropped, duplicated, delayed := set.Counts()
	if dropped != 4 || duplicated != 8 || delayed != 8 {
		t.Errorf("counts = %d/%d/%d, want 4/8/8", dropped, duplicated, delayed)
	}
	if st := n.Stats(); st.Sent != 16 || st.Frames != 2+4+8 {
		t.Errorf("stats = %+v, want 16 sent and 14 frames", st)
	}
}

// TestNodeNoLinkFaults pins the zero-cost path: without a rule set every
// message is held once and leaves in its destination's frame.
func TestNodeNoLinkFaults(t *testing.T) {
	g := graph.Clique(4)
	h := &echoHandler{id: 0, perDest: 3}
	out := &memOut{}
	n, err := node.New(node.Config{ID: 0, Graph: g, Handler: h, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	// Start: one frame of 3 per destination; the slab's 2 deliveries: one of 6.
	runAndPush(t, n, out, 2, 6)()
	frames, msgs := decodeFrames(t, out)
	for _, v := range g.Out(0) {
		if frames[v] != 2 || len(msgs[v]) != 9 || !ascendingRounds(msgs[v]) {
			t.Errorf("to %d: %d frames of %d messages, want 2 carrying 9 in order", v, frames[v], len(msgs[v]))
		}
	}
}
