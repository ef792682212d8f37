package node_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// probe is a recording protocol machine for the mailbox tests: it notes
// every delivery in order and whether any came before the machine started.
type probe struct {
	id int
	// started records that Start ran, for deliveries to check against.
	started     atomic.Bool
	beforeStart atomic.Bool
	mu          sync.Mutex
	got         []probeRec
}

type probeRec struct{ from, seq int }

func (p *probe) ID() int                 { return p.id }
func (p *probe) Output() (float64, bool) { return 0, false }
func (p *probe) Start(*sim.Outbox)       { p.started.Store(true) }

func (p *probe) Deliver(m transport.Message, _ *sim.Outbox) {
	if !p.started.Load() {
		p.beforeStart.Store(true)
	}
	p.mu.Lock()
	p.got = append(p.got, probeRec{from: m.From, seq: m.Payload.(iterative.ValPayload).Round})
	p.mu.Unlock()
}

func (p *probe) records() []probeRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]probeRec(nil), p.got...)
}

// seqsFrom is the sequence numbers p recorded from one sender, in order.
func (p *probe) seqsFrom(from int) []int {
	var seqs []int
	for _, r := range p.records() {
		if r.from == from {
			seqs = append(seqs, r.seq)
		}
	}
	return seqs
}

// newProbeNode builds vertex 1 of g around p, sending nowhere.
func newProbeNode(t testing.TB, g *graph.Graph, p *probe) *node.Node {
	t.Helper()
	p.id = 1
	n, err := node.New(node.Config{ID: 1, Graph: g, Handler: p, Out: &memOut{}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// postSeqs posts frames seq lo..hi-1 from one sender to vertex 1 as a
// single read burst.
func postSeqs(t testing.TB, n *node.Node, from, lo, hi int) {
	t.Helper()
	var frames [][]byte
	for seq := lo; seq < hi; seq++ {
		frame, err := wire.AppendInstanceMessage(wire.GetBuf(), 0, transport.Message{
			From: from, To: 1, Payload: iterative.ValPayload{Round: seq, Value: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	if !n.Post(from, frames) {
		t.Fatal("the node refused a post")
	}
}

func wantSeqs(t *testing.T, what string, got []int, lo, hi int) {
	t.Helper()
	if len(got) != hi-lo {
		t.Fatalf("%s: %d frames delivered, want %d", what, len(got), hi-lo)
	}
	for i, seq := range got {
		if seq != lo+i {
			t.Fatalf("%s: delivery %d carries seq %d, want %d", what, i, seq, lo+i)
		}
	}
}

// ended records what Start's closing callback reported.
type ended struct {
	mu    sync.Mutex
	calls int
	err   error
	late  int
}

func (e *ended) closing(err error, late int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls++
	e.err, e.late = err, late
}

func (e *ended) get() (calls int, err error, late int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls, e.err, e.late
}

// TestMailboxFIFOAcrossStart pins per-link FIFO across the start boundary
// on a one-shot node: frames posted before Start wait in the box, the
// machine starts before any of them is delivered, and they are delivered
// ahead of frames posted after, in arrival order.
func TestMailboxFIFOAcrossStart(t *testing.T) {
	g := graph.Clique(3)
	p := &probe{}
	n := newProbeNode(t, g, p)
	postSeqs(t, n, 0, 0, 3)
	postSeqs(t, n, 2, 0, 2)
	postSeqs(t, n, 0, 3, 5)
	if got := len(p.records()); got != 0 {
		t.Fatalf("%d frames delivered before Start", got)
	}
	n.Start(nil)
	postSeqs(t, n, 0, 5, 6)
	if p.beforeStart.Load() {
		t.Fatal("a frame was delivered before the machine started")
	}
	wantSeqs(t, "link 0", p.seqsFrom(0), 0, 6)
	wantSeqs(t, "link 2", p.seqsFrom(2), 0, 2)
	want := []probeRec{{0, 0}, {0, 1}, {0, 2}, {2, 0}, {2, 1}, {0, 3}, {0, 4}, {0, 5}}
	if got := p.records(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want arrival order %v", got, want)
	}
}

// TestMailboxFailureClosesNode: an outbound failure closes the mailbox at
// once — on reliable links a dead transport is unsalvageable — and the
// closing callback reports it with the frames it will never deliver.
func TestMailboxFailureClosesNode(t *testing.T) {
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
	frame := encode(t, transport.Message{From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1}})
	if !n.Post(1, [][]byte{frame}) {
		t.Fatal("an unstarted node refused a post")
	}
	var end ended
	n.Start(end.closing) // the round-1 broadcast fails at once
	calls, gotErr, late := end.get()
	if calls != 1 || !errors.Is(gotErr, errFail) || late != 1 {
		t.Fatalf("closing called %d times with (%v, %d late), want once with the transport failure and 1 late", calls, gotErr, late)
	}
	if out.calls == 0 {
		t.Fatal("outbound never invoked")
	}
	if n.Err() == nil {
		t.Fatal("Err() = nil after an outbound failure")
	}
	if n.Post(1, [][]byte{encode(t, transport.Message{From: 1, To: 0, Payload: iterative.ValPayload{Round: 1, Value: 1}})}) {
		t.Fatal("a failed node took a post")
	}
}
