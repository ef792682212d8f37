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
// edge must exist), invokes the handler once per message the frame
// carries, and transmits everything the handler sent through the Outbound.
// Handlers therefore keep the exact concurrency contract they have in the
// simulator: one invocation at a time, with sends collected per
// invocation. The one-shot runtimes run one such loop per vertex (Run);
// the service tier keeps the contract without the goroutine by calling the
// loop's two halves, Start and Deliver, from whichever goroutine holds an
// instance's mailbox (internal/service).
//
// Sends leave in bundles: the node holds every handler invocation's sends
// per destination and flushes one frame per destination (wire.AppendFrame)
// at the end of each burst — Start, one inbox slab in Run, one frame in
// Deliver. Link faults are drawn per message before a message is held, as
// the simulator draws them per message at its pool boundary: a dropped
// message is never held, a duplicated one is held twice, and a delayed copy
// leaves later in a frame of its own.
package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/linkfault"
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
	// Inst is the consensus instance stamped into every frame the node
	// sends: 0 in the single-shot runtimes, the instance id in the service
	// tier.
	Inst uint64
	// LinkFaults, when non-nil, applies the per-edge Byzantine link-failure
	// rules to every message the node sends: each message's fate (drop,
	// duplicate, delay by Fate.Delay milliseconds) is drawn from the set's
	// seeded per-edge streams before the message joins a frame.
	LinkFaults *linkfault.Set
	// Observer, when non-nil, receives this node's runtime events
	// (deliveries and per-round value snapshots). In a cluster one observer
	// is typically shared by every node and is then invoked from concurrent
	// node loops: it must be goroutine-safe (JSONLObserver is). Event.Step
	// is the node-local delivery count.
	Observer sim.Observer
	// OnDecide, when non-nil, is invoked exactly once, from the node's
	// loop, when the handler first reports an output.
	OnDecide func(id int, output float64)
}

// inboxCap is the inbox channel's buffer in slabs (each slab carries up to
// a transport read batch of frames). Transport pumps block when it fills,
// their upstream queues absorb the backlog.
const inboxCap = 256

// Stats counts a node's runtime traffic.
type Stats struct {
	// Delivered is the number of messages decoded and handed to the
	// handler; Sent is the number of messages the handler sent, counted
	// before link faults; Frames is the number of frames handed to the
	// Outbound (a delayed copy counts when it is scheduled). A frame
	// carries one or more messages of one link, so Frames <= Sent on a
	// link without duplication.
	Delivered int
	Sent      int
	Frames    int
	// Malformed counts inbound frames the codec rejected; Spoofed counts
	// the messages of well-formed frames whose claimed sender or edge did
	// not match the link they arrived on. Both are dropped.
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
	// resets it before each delivery and has held everything in it before
	// the next.
	out *sim.Outbox
	// outs are the node's out-neighbours, ascending; held[i] are the sends
	// to outs[i] not yet flushed, in send order, and dirty lists the
	// positions holding any, in first-hold order. Indexing by out-neighbour
	// position, not by vertex, keeps the state at the node's degree on
	// thousand-vertex fleets.
	outs  []int
	held  [][]transport.Message
	dirty []int
	// in is the decode buffer of the frame being delivered.
	in   []transport.Message
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
	outs := cfg.Graph.Out(cfg.ID)
	return &Node{
		cfg:   cfg,
		stats: Stats{ByKind: make(map[string]int)},
		out:   sim.NewCollector(cfg.ID, cfg.Graph),
		outs:  outs,
		held:  make([][]transport.Message, len(outs)),
		done:  make(chan struct{}),
	}, nil
}

func (n *Node) queue() chan []Inbound {
	n.inboxOnce.Do(func() { n.inbox = make(chan []Inbound, inboxCap) })
	return n.inbox
}

// ID returns the node's vertex id.
func (n *Node) ID() int { return n.cfg.ID }

// PushBatch delivers one slab of inbound frames in a single channel
// operation — the only way into the inbox, whose inboxCap is therefore
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
// opening sends, one frame per destination. A caller that drives the
// machine itself instead of running the loop (the service tier's runners)
// calls Start once, then Deliver one frame at a time, never concurrently
// and never alongside Run.
func (n *Node) Start() error {
	n.cfg.Handler.Start(n.out)
	if err := n.transmit(n.out.Messages()); err != nil {
		return err
	}
	if err := n.flush(); err != nil {
		return err
	}
	n.observeProgress()
	return nil
}

// Run executes the node's event loop: Start the handler, then deliver
// inbound slabs until ctx is cancelled, holding the sends of a slab's
// deliveries and flushing them, one frame per destination, once the slab
// is done. Cancellation is the normal shutdown path and returns nil; Run
// only errors when the outbound transport fails, which on reliable links
// means the run is unsalvageable.
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

// deliverSlab delivers one inbox slab, flushes the sends it produced — one
// frame per destination for the whole slab — and recycles the slab. On an
// error (outbound transport failure) the remaining frames are released —
// deliver already released the failing frame's buffer — so pool
// accounting stays balanced on the unsalvageable-run path too.
func (n *Node) deliverSlab(slab []Inbound) error {
	for i := range slab {
		if err := n.deliver(slab[i]); err != nil {
			for _, rest := range slab[i+1:] {
				wire.PutBuf(rest.Frame)
			}
			PutSlab(slab)
			return err
		}
	}
	PutSlab(slab)
	return n.flush()
}

// Deliver decodes, validates and hands one frame's messages to the
// handler, then flushes the sends they produced, one frame per
// destination, before it returns: the service tier's per-frame entry.
// Ownership of in.Frame transfers with the call, error or not; the only
// error is an outbound transport failure (see Run) — a malformed or forged
// frame is counted and dropped.
func (n *Node) Deliver(in Inbound) error {
	if err := n.deliver(in); err != nil {
		return err
	}
	return n.flush()
}

// deliver hands one frame's messages to the handler, one invocation each,
// and holds each invocation's sends for the caller's flush.
func (n *Node) deliver(in Inbound) error {
	var err error
	_, n.in, err = wire.DecodeFrame(in.Frame, n.in[:0])
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
	// the simulator enforces by stamping From in the Outbox. Every message
	// of a frame shares its header, so the check is once per frame.
	if m := n.in[0]; m.From != in.From || m.To != n.cfg.ID || !n.cfg.Graph.HasEdge(m.From, m.To) {
		n.stats.Spoofed += len(n.in)
		return nil
	}
	for _, m := range n.in {
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
	}
	return nil
}

// transmit draws the link fate of each of a handler invocation's sends and
// holds its copies for the next flush: a dropped message is never held, a
// duplicated one is held once per copy, and a delayed copy is encoded now
// into a frame of its own that leaves when the delay ends.
func (n *Node) transmit(msgs []transport.Message) error {
	for k := range msgs {
		m := &msgs[k]
		n.stats.Sent++
		n.stats.ByKind[m.Payload.Kind()]++
		fate := linkfault.Fate{Copies: 1}
		if n.cfg.LinkFaults != nil {
			fate = n.cfg.LinkFaults.Next(n.cfg.ID, m.To)
		}
		for range fate.Copies {
			if fate.Delay <= 0 {
				n.hold(m)
			} else if err := n.sendLater(*m, time.Duration(fate.Delay)*time.Millisecond); err != nil {
				return err
			}
		}
	}
	return nil
}

// hold queues m for the next flush, behind the sends already held for its
// destination.
func (n *Node) hold(m *transport.Message) {
	// The Outbox admits sends over out-edges only, so m.To is found.
	i, _ := slices.BinarySearch(n.outs, m.To)
	if len(n.held[i]) == 0 {
		n.dirty = append(n.dirty, i)
	}
	n.held[i] = append(n.held[i], *m)
}

// sendLater encodes m into a frame of its own, in a pooled buffer whose
// ownership travels with the Send, and hands it to the Outbound once delay
// has passed. A delayed frame is fire-and-forget: one that lands after
// shutdown is dropped by the closed transport, exactly like a message
// still in flight when a run ends.
func (n *Node) sendLater(m transport.Message, delay time.Duration) error {
	frame, err := wire.AppendInstanceMessage(wire.GetBuf(), n.cfg.Inst, m)
	if err != nil {
		// A payload the codec cannot carry is a programming error in the
		// protocol/codec pairing, not a runtime condition.
		return fmt.Errorf("node %d: %w", n.cfg.ID, err)
	}
	n.stats.Frames++
	out, to := n.cfg.Out, m.To
	time.AfterFunc(delay, func() { _ = out.Send(to, frame) })
	return nil
}

// flush transmits the held sends: one frame per destination, split only
// where a bundle would pass wire.MaxFrame. Everything held is gone
// afterwards, sent or not (the lists keep their backing arrays, and with
// them at most one burst's payloads per destination, for the next burst).
func (n *Node) flush() error {
	var err error
	for _, i := range n.dirty {
		for rest := n.held[i]; len(rest) > 0 && err == nil; {
			var frame []byte
			var k int
			if frame, k, err = wire.AppendFrame(wire.GetBuf(), n.cfg.Inst, rest); err != nil {
				err = fmt.Errorf("node %d: %w", n.cfg.ID, err)
				break
			}
			rest = rest[k:]
			n.stats.Frames++
			if err = n.cfg.Out.Send(n.outs[i], frame); err != nil {
				err = fmt.Errorf("node %d: send to %d: %w", n.cfg.ID, n.outs[i], err)
			}
		}
		n.held[i] = n.held[i][:0]
	}
	n.dirty = n.dirty[:0]
	return err
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
