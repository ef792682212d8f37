// Package node is the live per-process runtime of the system: it wraps one
// protocol machine (a sim.Handler — honest or adversary-wrapped) behind a
// real inbox/outbox loop so the same state machines that run inside the
// deterministic simulator run unchanged over network transports.
//
// A Node owns a single event-loop goroutine. Inbound frames arrive on the
// inbox channel (pushed there by a transport's per-peer readers, which
// preserves per-peer order — the FIFO links the protocols assume); the loop
// decodes each frame with the wire codec, enforces the reliable-link model
// (the claimed sender must match the link the frame arrived on, and the
// edge must exist), invokes the handler, and transmits everything the
// handler sent through the Outbound. Handlers therefore keep the exact
// concurrency contract they have in the simulator: one invocation at a
// time, with sends collected per invocation. The one-shot runtimes run one
// such loop per vertex (Run); the service tier keeps the contract without the
// goroutine by calling the loop's two halves, Start and Deliver, from
// whichever goroutine holds an instance's mailbox (internal/service).
package node

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Inbound is one raw frame received from peer From. The From tag comes
// from the transport layer (the connection the frame arrived on), not from
// the frame contents; the node cross-checks the two. Pushing an Inbound
// into a node's inbox transfers ownership of Frame: the event loop
// releases the buffer to the wire pool after decoding it, so the pusher
// must not retain or reuse the slice (non-pooled buffers are released into
// a no-op, so hand-crafted frames are safe).
type Inbound struct {
	From  int
	Frame []byte
}

// Slabs are the unit the inbox channel carries: one []Inbound per channel
// operation, so a transport that read a burst of frames pays one send (and
// the event loop one receive) for the whole burst instead of one per frame.
// Like frame buffers, slabs are pooled in a capacity band — inert for
// foreign slices — in a processor-local LIFO pool of recycled headers; see
// wire's framePool for the design and what it does to the alloc fences.
const (
	// defaultSlabCap matches the transports' read-batch ceiling, so one
	// socket batch fits one slab without growing it.
	defaultSlabCap = 64
	minSlabCap     = 8
	maxSlabCap     = 1024
)

var (
	slabPool       sync.Pool // *[]Inbound, each holding one released in-band slab
	slabHeaderPool sync.Pool // *[]Inbound emptied by GetSlab, for PutSlab to refill
)

// GetSlab returns an empty Inbound slab, reusing a released one when
// available. The caller owns it until it hands it off or releases it.
func GetSlab() []Inbound {
	h, _ := slabPool.Get().(*[]Inbound)
	if h == nil {
		return make([]Inbound, 0, defaultSlabCap)
	}
	s := *h
	*h = nil
	slabHeaderPool.Put(h)
	return s
}

// PutSlab releases a slab back to the pool. Entries are zeroed first so a
// pooled slab never pins frame buffers; slabs outside the capacity band —
// including nil and slice literals from tests — are dropped silently. The
// frames inside must already have been released or handed off: PutSlab
// recycles only the container.
func PutSlab(s []Inbound) {
	if cap(s) < minSlabCap || cap(s) > maxSlabCap {
		return
	}
	clear(s)
	h, _ := slabHeaderPool.Get().(*[]Inbound)
	if h == nil {
		h = new([]Inbound)
	}
	*h = s[:0]
	slabPool.Put(h)
}

// Outbound transmits encoded frames toward a peer. The cluster transports
// enqueue onto bounded per-peer queues: Send blocks when a peer falls
// cluster.DefaultQueueCap frames behind — backpressure on this node's
// event loop — and returns once the peer's writer drains or the run shuts
// down. Ownership of frame transfers with the call.
type Outbound interface {
	Send(to int, frame []byte) error
}

// Config parameterizes a Node.
type Config struct {
	// ID is this node's vertex in the graph.
	ID int
	// Graph is the shared topology (all nodes know the network, as the
	// paper assumes); it bounds which edges the node may use.
	Graph *graph.Graph
	// Handler is the protocol machine, possibly adversary-wrapped.
	Handler sim.Handler
	// Out transmits this node's traffic.
	Out Outbound
	// Encode appends an outbound message's wire frame body to dst (a pooled
	// buffer the node hands in) and returns the extended slice. Nil means
	// wire.AppendMessage (instance 0 — the single-shot runtimes). The
	// service tier supplies a per-instance encoder that stamps the
	// instance id into every frame the machine emits.
	Encode func(dst []byte, m transport.Message) ([]byte, error)
	// Observer, when non-nil, receives this node's runtime events
	// (deliveries and per-round value snapshots). In a cluster one observer
	// is typically shared by every node and is then invoked from concurrent
	// node loops: it must be goroutine-safe (JSONLObserver is). Event.Step
	// is the node-local delivery count.
	Observer sim.Observer
	// OnDecide, when non-nil, is invoked exactly once, from the node's
	// loop, when the handler first reports an output.
	OnDecide func(id int, output float64)
	// InboxCap is the inbox channel's buffer in slabs (default 256; each
	// slab carries up to a transport read batch of frames). Transport
	// pumps block when it fills, their upstream queues absorb the backlog.
	InboxCap int
}

// Stats counts a node's runtime traffic.
type Stats struct {
	// Delivered is the number of frames decoded and handed to the handler.
	Delivered int
	// Sent is the number of frames transmitted.
	Sent int
	// Malformed counts inbound frames the codec rejected; Spoofed counts
	// well-formed frames whose claimed sender or edge did not match the
	// link they arrived on. Both are dropped.
	Malformed int
	Spoofed   int
	// ByKind counts sent messages per payload kind, like the simulator's
	// transport stats.
	ByKind map[string]int
}

// Node runs one protocol endpoint over a live transport. Create with New;
// feed via PushBatch and drive with Run, or call Start and Deliver directly.
type Node struct {
	cfg Config
	// inbox is made on first use (inboxOnce): a node driven through Start
	// and Deliver never needs one.
	inboxOnce sync.Once
	inbox     chan []Inbound
	stats     Stats
	steps     int
	decided   bool
	seen      int // rounds already streamed to the observer
	// out collects one handler invocation's sends; the event loop owns it,
	// resets it before each delivery and has transmitted everything in it
	// before the next.
	out  *sim.Outbox
	done chan struct{}
}

// New validates the config and builds a node.
func New(cfg Config) (*Node, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("node: config needs a graph")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Graph.N() {
		return nil, fmt.Errorf("node: id %d outside graph order %d", cfg.ID, cfg.Graph.N())
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("node: config needs a handler")
	}
	if cfg.Handler.ID() != cfg.ID {
		return nil, fmt.Errorf("node: handler has id %d, config says %d", cfg.Handler.ID(), cfg.ID)
	}
	if cfg.Out == nil {
		return nil, fmt.Errorf("node: config needs an outbound")
	}
	if cfg.InboxCap == 0 {
		cfg.InboxCap = 256
	}
	if cfg.Encode == nil {
		cfg.Encode = wire.AppendMessage
	}
	return &Node{
		cfg:   cfg,
		stats: Stats{ByKind: make(map[string]int)},
		out:   sim.NewCollector(cfg.ID, cfg.Graph),
		done:  make(chan struct{}),
	}, nil
}

func (n *Node) queue() chan []Inbound {
	n.inboxOnce.Do(func() { n.inbox = make(chan []Inbound, n.cfg.InboxCap) })
	return n.inbox
}

// ID returns the node's vertex id.
func (n *Node) ID() int { return n.cfg.ID }

// PushBatch delivers one slab of inbound frames in a single channel
// operation — the only way into the inbox, whose InboxCap is therefore
// measured in slabs, not frames. On true, ownership of slab and every
// frame in it has transferred to the node (the event loop releases frames
// after decoding and recycles the slab). On false the node is shutting
// down (or ctx was cancelled) and nothing was consumed: the caller still
// owns the slab and its frames and must release them.
func (n *Node) PushBatch(ctx context.Context, slab []Inbound) bool {
	if len(slab) == 0 {
		PutSlab(slab)
		return true
	}
	select {
	case n.queue() <- slab:
		return true
	case <-n.done:
		return false
	case <-ctx.Done():
		return false
	}
}

// Done is closed when Run returns; transports use it to unblock pumps that
// are mid-push into a full inbox.
func (n *Node) Done() <-chan struct{} { return n.done }

// Start is the first half of Run: it starts the handler and transmits its
// opening sends. A caller that drives the machine itself instead of running
// the loop (the service tier's runners) calls Start once, then Deliver one
// frame at a time, never concurrently and never alongside Run.
func (n *Node) Start() error {
	n.cfg.Handler.Start(n.out)
	if err := n.transmit(n.out.Messages()); err != nil {
		return err
	}
	n.observeProgress()
	return nil
}

// Run executes the node's event loop: Start the handler, then Deliver
// inbound frames until ctx is cancelled. Cancellation is the normal
// shutdown path and returns nil; Run only errors when the outbound
// transport fails, which on reliable links means the run is unsalvageable.
//
// Run must be called exactly once. After it returns, Output and Stats are
// safe to read from any goroutine.
func (n *Node) Run(ctx context.Context) error {
	defer close(n.done)
	if err := n.Start(); err != nil {
		return err
	}
	inbox := n.queue()
	for {
		select {
		case <-ctx.Done():
			return nil
		case slab := <-inbox:
			if err := n.deliverSlab(slab); err != nil {
				return err
			}
		}
	}
}

// deliverSlab drains one inbox slab through Deliver and recycles the slab.
// On a delivery error (outbound transport failure) the remaining frames
// are released — Deliver already released the failing frame's buffer — so
// pool accounting stays balanced on the unsalvageable-run path too.
func (n *Node) deliverSlab(slab []Inbound) error {
	for i := range slab {
		if err := n.Deliver(slab[i]); err != nil {
			for _, rest := range slab[i+1:] {
				wire.PutBuf(rest.Frame)
			}
			PutSlab(slab)
			return err
		}
	}
	PutSlab(slab)
	return nil
}

// Deliver decodes, validates and hands one frame to the handler, then
// transmits the handler's response traffic. Ownership of in.Frame transfers
// with the call, error or not; the only error is an outbound transport
// failure (see Run) — a malformed or forged frame is counted and dropped.
func (n *Node) Deliver(in Inbound) error {
	m, err := wire.DecodeMessage(in.Frame)
	// The decode copies every payload field out of the frame, so the node —
	// the frame's final owner — releases the buffer to the pool right here,
	// malformed or not.
	wire.PutBuf(in.Frame)
	if err != nil {
		n.stats.Malformed++
		return nil
	}
	// Reliable-link model: the receiver learns the true sender. A frame
	// claiming a different From than the connection it arrived on, a wrong
	// destination, or a non-edge is forged and dropped — the same guarantee
	// the simulator enforces by stamping From in the Outbox.
	if m.From != in.From || m.To != n.cfg.ID || !n.cfg.Graph.HasEdge(m.From, m.To) {
		n.stats.Spoofed++
		return nil
	}
	n.steps++
	n.stats.Delivered++
	m.Seq = uint64(n.steps) // node-local delivery order, for observability
	if n.cfg.Observer != nil {
		n.cfg.Observer.Observe(sim.Event{Type: sim.EventDeliver, Step: n.steps, Message: m})
	}
	n.out.Reset()
	n.cfg.Handler.Deliver(m, n.out)
	if err := n.transmit(n.out.Messages()); err != nil {
		return err
	}
	n.observeProgress()
	return nil
}

// transmit encodes and sends a handler invocation's collected messages.
// Each frame is encoded into a pooled buffer whose ownership travels with
// the Send; the transport releases it after transmission.
func (n *Node) transmit(msgs []transport.Message) error {
	for _, m := range msgs {
		frame, err := n.cfg.Encode(wire.GetBuf(), m)
		if err != nil {
			wire.PutBuf(frame)
			// A payload the codec cannot carry is a programming error in the
			// protocol/codec pairing, not a runtime condition.
			return fmt.Errorf("node %d: %w", n.cfg.ID, err)
		}
		if err := n.cfg.Out.Send(m.To, frame); err != nil {
			return fmt.Errorf("node %d: send to %d: %w", n.cfg.ID, m.To, err)
		}
		n.stats.Sent++
		n.stats.ByKind[m.Payload.Kind()]++
	}
	return nil
}

// historyProvider is implemented by machines that record per-round values.
type historyProvider interface{ History() []float64 }

// observeProgress streams newly completed rounds and fires OnDecide once.
func (n *Node) observeProgress() {
	if n.cfg.Observer != nil {
		if hp, ok := n.cfg.Handler.(historyProvider); ok {
			hist := hp.History()
			for r := n.seen; r < len(hist); r++ {
				n.cfg.Observer.Observe(sim.Event{
					Type: sim.EventRound, Step: n.steps,
					Node: n.cfg.ID, Round: r + 1, Value: hist[r],
				})
			}
			n.seen = len(hist)
		}
	}
	if !n.decided {
		if x, ok := n.cfg.Handler.Output(); ok {
			n.decided = true
			if n.cfg.OnDecide != nil {
				n.cfg.OnDecide(n.cfg.ID, x)
			}
		}
	}
}

// Output reports the handler's decision. Only call after Run has returned
// (handlers are not goroutine-safe while the loop is live).
func (n *Node) Output() (float64, bool) { return n.cfg.Handler.Output() }

// Handler exposes the wrapped protocol machine; same safety rule as Output.
func (n *Node) Handler() sim.Handler { return n.cfg.Handler }

// Stats returns the node's traffic counters; same safety rule as Output.
func (n *Node) Stats() Stats { return n.stats }
