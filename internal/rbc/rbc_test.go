package rbc_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// strContent is a trivial rbc.Content for tests.
type strContent string

func (s strContent) Equal(c rbc.Content) bool { return c == rbc.Content(s) }

// oneTag is the slot map of every test here: the single tag "t".
func oneTag(tag string) int {
	if tag == "t" {
		return 0
	}
	return -1
}

// label renders a content for comparison between nodes.
func label(c rbc.Content) string { return fmt.Sprintf("%T:%v", c, c) }

// rbcNode drives one Broadcaster and records deliveries.
type rbcNode struct {
	id        int
	b         *rbc.Broadcaster
	toSend    map[string]rbc.Content // tag -> content broadcast at start
	delivered map[string]string      // origin/tag -> content key
}

func newRBCNode(t *testing.T, n, f, id int) *rbcNode {
	t.Helper()
	b, err := rbc.New(n, f, id, 1, oneTag)
	if err != nil {
		t.Fatal(err)
	}
	return &rbcNode{id: id, b: b, toSend: map[string]rbc.Content{}, delivered: map[string]string{}}
}

func (r *rbcNode) ID() int { return r.id }

func (r *rbcNode) Start(out *sim.Outbox) {
	for tag, c := range r.toSend {
		r.record(r.b.Broadcast(tag, c, out))
	}
}

func (r *rbcNode) Deliver(msg transport.Message, out *sim.Outbox) {
	r.record(r.b.Handle(msg, out))
}

func (r *rbcNode) record(ds []rbc.Delivery) {
	for _, d := range ds {
		r.delivered[strconv.Itoa(d.Origin)+"/"+d.Tag] = label(d.Content)
	}
}

func (r *rbcNode) Output() (float64, bool) { return 0, len(r.delivered) > 0 }

// byzantineInit equivocates: it sends INIT with different contents to
// different receivers.
type byzantineInit struct {
	id int
}

func (b *byzantineInit) ID() int { return b.id }

func (b *byzantineInit) Start(out *sim.Outbox) {
	for _, w := range out.Graph().Out(b.id) {
		out.Send(w, rbc.Msg{
			Phase:   rbc.PhaseInit,
			Origin:  b.id,
			Tag:     "t",
			Content: strContent("split-" + strconv.Itoa(w%2)),
		})
	}
}

func (b *byzantineInit) Deliver(transport.Message, *sim.Outbox) {}

func (b *byzantineInit) Output() (float64, bool) { return 0, false }

func runRBC(t *testing.T, handlers []sim.Handler, g *graph.Graph, seed int64) {
	t.Helper()
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRBCAllDeliverHonest(t *testing.T) {
	const n, f = 4, 1
	g := graph.Clique(n)
	nodes := make([]*rbcNode, n)
	handlers := make([]sim.Handler, n)
	for i := 0; i < n; i++ {
		nodes[i] = newRBCNode(t, n, f, i)
		nodes[i].toSend["t"] = strContent("v" + strconv.Itoa(i))
		handlers[i] = nodes[i]
	}
	runRBC(t, handlers, g, 3)
	for i, node := range nodes {
		if len(node.delivered) != n {
			t.Errorf("node %d delivered %d broadcasts, want %d", i, len(node.delivered), n)
		}
	}
	// Agreement: all nodes deliver the same content per slot.
	for slot, want := range nodes[0].delivered {
		for i := 1; i < n; i++ {
			if got := nodes[i].delivered[slot]; got != want {
				t.Errorf("slot %s: node %d delivered %q, node 0 %q", slot, i, got, want)
			}
		}
	}
}

func TestRBCEquivocatorAgreement(t *testing.T) {
	// A Byzantine origin sends different INITs to different nodes; honest
	// nodes must still agree (they may deliver nothing, but never
	// different contents).
	const n, f = 4, 1
	g := graph.Clique(n)
	for seed := int64(0); seed < 30; seed++ {
		nodes := make([]*rbcNode, n)
		handlers := make([]sim.Handler, n)
		for i := 1; i < n; i++ {
			nodes[i] = newRBCNode(t, n, f, i)
			handlers[i] = nodes[i]
		}
		handlers[0] = &byzantineInit{id: 0}
		runRBC(t, handlers, g, seed)
		var seen string
		for i := 1; i < n; i++ {
			if c, ok := nodes[i].delivered["0/t"]; ok {
				if seen == "" {
					seen = c
				} else if c != seen {
					t.Fatalf("seed %d: honest nodes delivered %q and %q", seed, seen, c)
				}
			}
		}
	}
}

func TestRBCRejectsForeignInit(t *testing.T) {
	// An INIT claiming origin X sent by Y != X must be ignored.
	const n, f = 4, 1
	b, err := rbc.New(n, f, 1, 1, oneTag)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Clique(n)
	col := sim.NewCollector(1, g)
	forged := rbc.Msg{Phase: rbc.PhaseInit, Origin: 0, Tag: "t", Content: strContent("x")}
	if ds := b.Handle(transport.Message{From: 2, To: 1, Payload: forged}, col); len(ds) != 0 {
		t.Error("forged INIT delivered")
	}
	if len(col.Messages()) != 0 {
		t.Error("forged INIT echoed")
	}
}

func TestRBCParameters(t *testing.T) {
	if _, err := rbc.New(3, 1, 0, 1, oneTag); err == nil {
		t.Error("n=3f accepted")
	}
	if _, err := rbc.New(4, 1, 0, 1, oneTag); err != nil {
		t.Errorf("n=3f+1 rejected: %v", err)
	}
}

// silentNode participates in nothing: with enough of them, echo quorums
// become unreachable.
type silentNode struct{ id int }

func (s *silentNode) ID() int                                { return s.id }
func (s *silentNode) Start(*sim.Outbox)                      {}
func (s *silentNode) Deliver(transport.Message, *sim.Outbox) {}
func (s *silentNode) Output() (float64, bool)                { return 0, false }

// TestRBCNoDeliveryWithoutEchoQuorum: with two of four nodes silent only
// two echoes can ever exist, below the ceil((n+f+1)/2)=3 threshold, so no
// slot may deliver anywhere — totality only holds when the quorums are
// reachable.
func TestRBCNoDeliveryWithoutEchoQuorum(t *testing.T) {
	const n, f = 4, 1
	g := graph.Clique(n)
	for seed := int64(0); seed < 10; seed++ {
		nodes := make([]*rbcNode, n)
		handlers := make([]sim.Handler, n)
		for i := 0; i < 2; i++ {
			nodes[i] = newRBCNode(t, n, f, i)
			nodes[i].toSend["t"] = strContent("v" + strconv.Itoa(i))
			handlers[i] = nodes[i]
		}
		for i := 2; i < n; i++ {
			handlers[i] = &silentNode{id: i}
		}
		runRBC(t, handlers, g, seed)
		for i := 0; i < 2; i++ {
			if len(nodes[i].delivered) != 0 {
				t.Fatalf("seed %d: node %d delivered %v without an echo quorum", seed, i, nodes[i].delivered)
			}
		}
	}
}

// hookNode consumes deliveries through the OnDeliver hook instead of the
// return values, the way the exact tier's ACS machine does.
type hookNode struct {
	id     int
	b      *rbc.Broadcaster
	toSend map[string]rbc.Content
	hooked map[string]string
	retd   int // deliveries seen via return values, must match the hook
}

func newHookNode(t *testing.T, n, f, id int) *hookNode {
	t.Helper()
	b, err := rbc.New(n, f, id, 1, oneTag)
	if err != nil {
		t.Fatal(err)
	}
	h := &hookNode{id: id, b: b, toSend: map[string]rbc.Content{}, hooked: map[string]string{}}
	b.OnDeliver(func(d rbc.Delivery, _ *sim.Outbox) {
		h.hooked[strconv.Itoa(d.Origin)+"/"+d.Tag] = label(d.Content)
	})
	return h
}

func (h *hookNode) ID() int { return h.id }

func (h *hookNode) Start(out *sim.Outbox) {
	for tag, c := range h.toSend {
		h.retd += len(h.b.Broadcast(tag, c, out))
	}
}

func (h *hookNode) Deliver(msg transport.Message, out *sim.Outbox) {
	h.retd += len(h.b.Handle(msg, out))
}

func (h *hookNode) Output() (float64, bool) { return 0, len(h.hooked) > 0 }

// TestRBCDeliveryHook: the hook observes exactly the deliveries the return
// values report, with the same per-slot agreement, and numeric contents
// (rbc.Num) round-trip through it.
func TestRBCDeliveryHook(t *testing.T) {
	const n, f = 4, 1
	g := graph.Clique(n)
	nodes := make([]*hookNode, n)
	handlers := make([]sim.Handler, n)
	for i := 0; i < n; i++ {
		nodes[i] = newHookNode(t, n, f, i)
		nodes[i].toSend["t"] = rbc.Num(float64(i) + 0.5)
		handlers[i] = nodes[i]
	}
	runRBC(t, handlers, g, 11)
	for i, node := range nodes {
		if len(node.hooked) != n {
			t.Errorf("node %d hook saw %d deliveries, want %d", i, len(node.hooked), n)
		}
		if node.retd != len(node.hooked) {
			t.Errorf("node %d: %d deliveries via returns, %d via hook", i, node.retd, len(node.hooked))
		}
		for slot, want := range nodes[0].hooked {
			if got := node.hooked[slot]; got != want {
				t.Errorf("slot %s: node %d hooked %q, node 0 %q", slot, i, got, want)
			}
		}
	}
	if got := nodes[0].hooked["2/t"]; got != label(rbc.Num(2.5)) {
		t.Errorf("slot 2/t delivered %q, want %q", got, label(rbc.Num(2.5)))
	}
}
