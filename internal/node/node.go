// Package node is the live per-process runtime of the system: it wraps one
// protocol machine (a sim.Handler — honest or adversary-wrapped) behind a
// mailbox, so the same state machines that run inside the deterministic
// simulator run unchanged over network transports.
//
// A Node is a mailbox, not a goroutine. Whoever has frames for it — a
// connection's reader, one-shot or in the service tier — posts them (Post);
// if nobody is running the node, the poster becomes its runner and delivers
// inline, otherwise it goes back to its socket and the runner picks the
// frames up. Posters append in arrival order, so per-link FIFO (the
// reliable links the protocols assume) holds by construction, and one
// runner at a time keeps the simulator's Handler contract. The runner
// decodes each frame, enforces the reliable-link model (the claimed sender
// must match the link the frame arrived on, and the edge must exist),
// invokes the handler once per message, and transmits what it sent.
//
// Sends leave in bundles: the runner holds every handler invocation's sends
// per destination and flushes one frame per destination (wire.AppendFrame)
// at the end of each batch it takes from the box, and after Start's opening
// sends. Link faults are drawn per message before a message is held, as the
// simulator draws them per message at its pool boundary: a dropped message
// is never held, a duplicated one is held twice, and a delayed copy leaves
// later in a frame of its own.
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
// the frame contents; the node cross-checks the two. Handing an Inbound to
// a node transfers ownership of Frame: the runner releases the buffer to
// the wire pool after decoding it, so the poster must not retain or reuse
// the slice (non-pooled buffers are released into a no-op, so hand-crafted
// frames are safe).
type Inbound struct {
	From  int
	Frame []byte
}

// A node's box and the batch its runner took from it are slabs: []Inbound
// pooled in a capacity band — inert for foreign slices — in a
// processor-local LIFO pool of recycled headers, like frame buffers; see
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
// cluster.DefaultQueueCap frames behind — backpressure on whoever runs
// this node — and returns once the peer's writer drains or the run shuts
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
	// runners: it must be goroutine-safe (JSONLObserver is). Event.Step is
	// the node-local delivery count.
	Observer sim.Observer
	// OnDecide, when non-nil, is invoked exactly once, from the node's
	// runner, when the handler first reports an output.
	OnDecide func(id int, output float64)
}

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
	// transport stats; Stats builds it from the node's running counts.
	ByKind map[string]int
}

const (
	// BoxCap bounds the frames posted and not yet taken, one peer queue's
	// worth (cluster.DefaultQueueCap). A poster that finds the box full
	// waits for the runner (an idle node's box is empty): inbound flow
	// control on that peer's connection.
	BoxCap = 1 << 14
	// RunBudget is how many frames a poster delivers before it hands the
	// rest to a goroutine of the node's, so a peer flooding one node cannot
	// hold another link's reader captive.
	RunBudget = 256
)

const (
	handedOff = -1 // a hand-off goroutine's budget: it has nothing to go back to
	standing  = -2 // Run's: it keeps the runner role until the node closes
)

// Node runs one protocol endpoint over a live transport. Create with New,
// feed with Post, open with Start, stop with Close.
type Node struct {
	cfg Config

	boxMu sync.Mutex
	space sync.Cond // parks posters at BoxCap and Run's runner on an empty box
	box   []Inbound // posted frames, arrival order
	// running: someone holds the runner role. New gives it to Start, so the
	// box does not run before Start; finish never gives it back.
	running bool
	closed  bool           // closed or closing: posts are refused
	handoff sync.WaitGroup // the goroutine a runner out of budget handed the role to

	// Runner-owned from here on; these change hands with the role.
	batch   []Inbound // taken from box; batch[next:] is undelivered
	next    int
	err     error                     // the outbound failure that stopped the node
	onEnd   func(err error, late int) // Start's closing callback
	stats   Stats
	kinds   transport.KindCounts // sends per kind; Stats turns it into ByKind
	steps   int
	decided bool
	seen    int // rounds already streamed to the observer
	// out collects one handler invocation's sends; the runner resets it
	// before each delivery and has held everything in it before the next.
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
	in []transport.Message
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
	n := &Node{
		cfg:     cfg,
		running: true,
		out:     sim.NewCollector(cfg.ID, cfg.Graph),
		outs:    outs,
		held:    make([][]transport.Message, len(outs)),
	}
	n.space.L = &n.boxMu
	return n, nil
}

// Post appends one connection's frames, all from peer from, to the box in
// arrival order and, when the node is started and idle, runs it: the caller
// delivers up to RunBudget frames inline, then hands the rest to a
// goroutine of the node's. A full box parks the caller until the runner
// takes it. On true every frame's ownership has transferred (the slice is
// not retained); on false the node is closed and the caller keeps them.
func (n *Node) Post(from int, frames [][]byte) bool {
	n.boxMu.Lock()
	if !n.admit() {
		n.boxMu.Unlock()
		return false
	}
	for _, frame := range frames {
		n.box = append(n.box, Inbound{From: from, Frame: frame})
	}
	idle := !n.running
	n.running = true
	n.boxMu.Unlock()
	if idle {
		n.run(RunBudget)
	}
	return true
}

// admit waits for room in the box and reports whether the node is open.
// The caller holds boxMu.
func (n *Node) admit() bool {
	for len(n.box) >= BoxCap && !n.closed {
		n.space.Wait()
	}
	if n.box == nil && !n.closed {
		n.box = GetSlab()
	}
	return !n.closed
}

// Start starts the machine as the node's first runner: it transmits the
// handler's opening sends, one frame per destination, then delivers what
// was posted meanwhile, ahead of anything posted after (per-link FIFO
// across the start boundary). Call it once. closing, when non-nil, is
// called once when the mailbox closes, on whichever goroutine then holds
// the runner role, with the outbound failure that closed it (nil when
// Close did) and the number of posted frames it released undelivered. On
// reliable links a dead transport is unsalvageable, so an outbound failure
// closes the mailbox at once; a malformed or forged frame is counted and
// dropped.
func (n *Node) Start(closing func(err error, late int)) {
	n.onEnd = closing
	n.begin()
	n.run(RunBudget)
}

// begin starts the handler, holding its sends for the first flush.
func (n *Node) begin() {
	n.cfg.Handler.Start(n.out)
	n.err = n.transmit(n.out.Messages())
	n.observeProgress()
}

// run delivers until the box is empty or the node stops, flushing the sends
// of each batch it takes once the batch is done. The caller holds the
// runner role; budget is how many frames it may deliver before it hands
// the role on (handedOff and standing never do).
func (n *Node) run(budget int) {
	for n.err == nil {
		if n.next == len(n.batch) {
			if n.err = n.flush(); n.err != nil {
				break
			}
			if !n.take(budget == standing) {
				return
			}
		}
		if budget == 0 {
			n.boxMu.Lock()
			closed := n.closed
			if !closed {
				n.handoff.Add(1) // before Close can Wait: it sets closed first
			}
			n.boxMu.Unlock()
			if closed {
				break // what is left of the batch is late
			}
			go func() {
				defer n.handoff.Done()
				n.run(handedOff)
			}()
			return
		}
		if budget > 0 {
			budget--
		}
		in := n.batch[n.next]
		n.next++
		n.err = n.deliver(in)
	}
	n.finish()
}

// take swaps the delivered batch for the box's contents, waiting for some
// when wait is set. False means the runner is done: the box was empty and
// the role is released, or the node was closed — the role is kept, for
// good — and is now finished.
func (n *Node) take(wait bool) bool {
	n.boxMu.Lock()
	for wait && len(n.box) == 0 && !n.closed {
		n.space.Wait()
	}
	if closed := n.closed; closed || len(n.box) == 0 {
		n.running = closed
		n.boxMu.Unlock()
		if closed {
			n.finish()
		}
		return false
	}
	clear(n.batch) // delivered and released: drop the references
	n.batch, n.box, n.next = n.box, n.batch[:0], 0
	n.space.Broadcast()
	n.boxMu.Unlock()
	return true
}

// Close closes the mailbox: later posts are refused, and frames not yet
// delivered are released as late. An idle node finishes here, a running
// one at its runner's next take. Close joins a hand-off goroutine, not a
// poster running the node inline; once none is, Output, Stats and Err are
// safe to read.
func (n *Node) Close() {
	n.boxMu.Lock()
	idle := !n.running
	n.running, n.closed = true, true
	n.space.Broadcast()
	n.boxMu.Unlock()
	if idle {
		n.finish()
	}
	n.handoff.Wait()
}

// finish closes the mailbox for good and releases everything it holds.
// Only the holder of the runner role calls it, and the role is never given
// back afterwards, so it runs exactly once.
func (n *Node) finish() {
	n.boxMu.Lock()
	n.closed = true
	rest := n.box
	n.box = nil
	n.space.Broadcast()
	n.boxMu.Unlock()
	late := 0
	for _, undelivered := range [2][]Inbound{n.batch[n.next:], rest} {
		late += len(undelivered)
		for _, in := range undelivered {
			wire.PutBuf(in.Frame)
		}
	}
	PutSlab(n.batch)
	PutSlab(rest)
	n.batch, n.next = nil, 0
	if n.onEnd != nil {
		n.onEnd(n.err, late)
	}
}

// Run and PushBatch feed the node through a standing runner: Run holds the
// role until ctx ends, and PushBatch only appends, never delivering inline.
// They are kept for the repo benchmark's node.loop cell (bench/micro.go),
// whose handler signals a channel the pusher itself reads, until the next
// benchmark change moves that cell onto Post.

// Run starts the node and delivers pushed slabs until ctx is cancelled,
// the normal shutdown, which returns nil; the error is an outbound failure.
func (n *Node) Run(ctx context.Context) error {
	defer context.AfterFunc(ctx, n.Close)()
	n.begin()
	n.run(standing)
	return n.err
}

// PushBatch appends one slab for Run's runner. On true the slab and its
// frames have transferred to the node; on false the node is shutting down
// (or ctx was cancelled) and the caller keeps them.
func (n *Node) PushBatch(ctx context.Context, slab []Inbound) bool {
	n.boxMu.Lock()
	defer n.boxMu.Unlock()
	if ctx.Err() != nil || !n.admit() {
		return false
	}
	n.box = append(n.box, slab...)
	n.space.Broadcast()
	PutSlab(slab)
	return true
}

// Err reports the outbound failure that stopped the node, nil if none;
// same safety rule as Output.
func (n *Node) Err() error { return n.err }

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
		n.kinds.Add(m.Payload.Kind())
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
// them at most one batch's payloads per destination, for the next batch).
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

// Output reports the handler's decision. Handlers are not goroutine-safe:
// only call it from the runner (OnDecide, Start's closing callback) or
// once the node is closed and no runner is left (see Close).
func (n *Node) Output() (float64, bool) { return n.cfg.Handler.Output() }

// Handler exposes the wrapped protocol machine; same safety rule as Output.
func (n *Node) Handler() sim.Handler { return n.cfg.Handler }

// Stats returns the node's traffic counters; same safety rule as Output.
func (n *Node) Stats() Stats {
	s := n.stats
	s.ByKind = n.kinds.Map()
	return s
}
