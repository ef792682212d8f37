// Package sim executes protocol handlers over the transport pool: a central
// loop picks the next in-flight message according to the configured
// asynchrony policy and calls the receiving handler with it. Any
// serialization of deliveries chosen this way is a legal asynchronous
// schedule, so seeded executions are both adversarially reorderable and
// exactly reproducible: the same seed yields the same delivery trace.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/transport"
)

// Handler is a protocol endpoint for one node. Start is invoked once before
// any delivery; Deliver is invoked once per received message. Handlers send
// by calling Outbox methods; sends are collected per invocation and injected
// into the network atomically afterwards. The Outbox is only valid for the
// duration of the invocation — the runner reuses it, so handlers must not
// retain it (or slices obtained from it) once Start/Deliver returns. Output
// reports the node's consensus output once available.
type Handler interface {
	ID() int
	Start(out *Outbox)
	Deliver(msg transport.Message, out *Outbox)
	Output() (float64, bool)
}

// Outbox collects a handler's sends during one invocation and enforces the
// network model: a node can only transmit over its outgoing edges (the
// paper's reliable-link model also means the receiver learns the true
// sender, which the runner guarantees by stamping From itself).
type Outbox struct {
	from  int
	g     *graph.Graph
	msgs  []transport.Message
	stats *transport.Stats
}

// Send queues a message to an out-neighbor. Sends over non-edges are
// dropped (and counted): even Byzantine nodes cannot forge links.
func (o *Outbox) Send(to int, p transport.Payload) {
	if !o.g.HasEdge(o.from, to) {
		if o.stats != nil {
			o.stats.RecordDrop()
		}
		return
	}
	o.msgs = append(o.msgs, transport.Message{From: o.from, To: to, Payload: p})
}

// NewCollector returns a detached Outbox that records sends without
// injecting them anywhere; fault-injection wrappers use it to intercept and
// rewrite an inner handler's traffic before forwarding.
func NewCollector(from int, g *graph.Graph) *Outbox {
	return &Outbox{from: from, g: g}
}

// Messages returns the sends collected so far.
func (o *Outbox) Messages() []transport.Message { return o.msgs }

// Reset empties a collector for its owner's next invocation, keeping the
// backing array; slices earlier returned by Messages are overwritten.
func (o *Outbox) Reset() { o.msgs = o.msgs[:0] }

// Broadcast sends the payload to every out-neighbor; each is an edge, so
// none is checked.
func (o *Outbox) Broadcast(p transport.Payload) {
	for _, v := range o.g.Out(o.from) {
		o.msgs = append(o.msgs, transport.Message{From: o.from, To: v, Payload: p})
	}
}

// Graph exposes the topology (all nodes know the network, as the paper
// assumes).
func (o *Outbox) Graph() *graph.Graph { return o.g }

// Config parameterizes an execution.
type Config struct {
	Graph  *graph.Graph
	Policy transport.Policy
	// Hold withholds matching messages until ReleaseWhen fires (or until the
	// rest of the network quiesces — delays are finite). Optional.
	Hold *transport.HoldRule
	// LinkFaults, when non-nil, applies per-edge Byzantine link failures at
	// message injection — the simulator's transport boundary: a send may be
	// dropped, duplicated, or delayed by Fate.Delay delivery steps before it
	// enters the pool. Delays are finite: once the rest of the network
	// quiesces, every delayed message is released. Decisions happen in the
	// runner loop, in injection order, so they are seed-deterministic.
	LinkFaults *linkfault.Set
	// ReleaseWhen, checked after every delivery, releases held messages when
	// it returns true. Optional.
	ReleaseWhen func(r *Runner) bool
	// StopWhen, checked after every delivery, ends the run early. Optional;
	// by default the run ends at quiescence (no deliverable messages).
	StopWhen func(r *Runner) bool
	// MaxSteps caps deliveries as a livelock guard. 0 means the default cap.
	MaxSteps int
	// RecordTrace keeps the delivery trace (one Message per delivery, in
	// delivery order) for the equivalence and determinism tests.
	//
	// Memory: every recorded delivery retains a 40-byte Message value plus
	// whatever its payload pins (for BW, a path proportional to the graph
	// order). Tracing a run at the full 20M-step delivery cap therefore
	// costs at least ~800 MB before payloads — leave tracing off outside
	// the determinism tests.
	RecordTrace bool
	// Observer, when non-nil, receives streaming events (deliveries, holds,
	// releases, per-round value snapshots) as the run progresses. Observers
	// only watch: the delivery schedule is identical with or without one.
	Observer Observer
}

// DefaultMaxSteps is the delivery cap when Config.MaxSteps is zero.
const DefaultMaxSteps = 20_000_000

// ErrLivelock is returned when an execution exceeds its delivery cap.
var ErrLivelock = errors.New("sim: delivery cap exceeded (livelock?)")

// Runner executes a set of handlers to quiescence.
type Runner struct {
	cfg      Config
	handlers []Handler
	pool     *transport.Pool
	stats    *transport.Stats
	steps    int
	trace    []transport.Message
	// delayed holds link-fault-delayed messages until their release step.
	delayed []delayedMessage
	// out is the one Outbox every invocation sends through: Run drains it
	// into the pool (copying each Message) before the next handler runs, and
	// no handler retains it — the contract stated on Handler.
	out Outbox
}

// delayedMessage is one send a link-fault delay rule is holding back; it
// enters the pool once the runner reaches step at.
type delayedMessage struct {
	m  transport.Message
	at int
}

// New builds a runner. Handlers must be indexed by node ID (handler i has
// ID i) and cover every node of the graph.
func New(cfg Config, handlers []Handler) (*Runner, error) {
	if cfg.Graph == nil {
		return nil, errors.New("sim: config needs a graph")
	}
	if len(handlers) != cfg.Graph.N() {
		return nil, fmt.Errorf("sim: %d handlers for %d nodes", len(handlers), cfg.Graph.N())
	}
	for i, h := range handlers {
		if h.ID() != i {
			return nil, fmt.Errorf("sim: handler at index %d has ID %d", i, h.ID())
		}
	}
	if cfg.Policy == nil {
		cfg.Policy = transport.NewRandomPolicy(1)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	stats := transport.NewStats()
	// Size the pool for one full broadcast wave (one message per edge) —
	// enough that typical runs never grow their arena, cheap enough that
	// tiny runs do not notice.
	capacity := cfg.Graph.M()
	if capacity > 1<<16 {
		capacity = 1 << 16
	}
	r := &Runner{
		cfg:      cfg,
		handlers: handlers,
		pool:     transport.NewPoolSized(cfg.Hold, stats, capacity),
		stats:    stats,
		out:      Outbox{g: cfg.Graph, stats: stats},
	}
	if cfg.RecordTrace {
		// Preallocate a modest starting size; growth takes over beyond it.
		r.trace = make([]transport.Message, 0, min(cfg.MaxSteps, 4096))
	}
	return r, nil
}

// Run executes until quiescence, early stop, or the delivery cap. Every
// pool mutation, policy pick and handler call happens here, on the caller's
// goroutine, one delivery at a time.
func (r *Runner) Run() error {
	var rounds *roundWatch
	if r.cfg.Observer != nil {
		rounds = newRoundWatch(len(r.handlers))
	}

	for i, h := range r.handlers {
		h.Start(r.outbox(i))
		r.injectAll(r.out.msgs)
		if rounds != nil {
			rounds.emit(i, h, r.steps, r.cfg.Observer)
		}
	}

	for {
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(r) {
			return nil
		}
		if r.cfg.ReleaseWhen != nil && r.cfg.Hold != nil && !r.cfg.Hold.Released() && r.cfg.ReleaseWhen(r) {
			r.releaseHeld()
		}
		r.releaseDelayed(false)
		if r.pool.PendingEmpty() {
			if len(r.delayed) > 0 {
				// Link-fault delays are finite: once everything else has
				// quiesced the delayed messages must eventually arrive.
				r.releaseDelayed(true)
				continue
			}
			if r.pool.HeldCount() > 0 {
				// Finite delays: once everything else has quiesced the
				// withheld messages must eventually arrive.
				r.releaseHeld()
				continue
			}
			return nil
		}
		if r.steps >= r.cfg.MaxSteps {
			return fmt.Errorf("%w: %d deliveries", ErrLivelock, r.steps)
		}
		r.steps++
		idx := r.cfg.Policy.Pick(r.pool.View())
		m := r.pool.Take(idx)
		if r.cfg.RecordTrace {
			r.trace = append(r.trace, m)
		}
		if r.cfg.Observer != nil {
			r.cfg.Observer.Observe(Event{Type: EventDeliver, Step: r.steps, Message: m})
		}
		h := r.handlers[m.To]
		h.Deliver(m, r.outbox(m.To))
		r.injectAll(r.out.msgs)
		if rounds != nil {
			rounds.emit(m.To, h, r.steps, r.cfg.Observer)
		}
	}
}

// outbox empties the shared Outbox and addresses it from node.
func (r *Runner) outbox(node int) *Outbox {
	r.out.from = node
	r.out.msgs = r.out.msgs[:0]
	return &r.out
}

// injectAll routes one invocation's batch of sends into the pool. With no
// link faults in play and no observer waiting on hold events it hands the
// whole batch to the pool's AddAll — one call, the per-message fate and
// hold branching amortized away — which is exactly equivalent to injecting
// the messages one by one (same Seq order, same pending order, same
// statistics), so the delivery schedule is unchanged.
func (r *Runner) injectAll(msgs []transport.Message) {
	if len(msgs) == 0 {
		return
	}
	if r.cfg.LinkFaults == nil && (r.cfg.Observer == nil || r.cfg.Hold == nil) {
		r.pool.AddAll(msgs)
		return
	}
	for _, m := range msgs {
		r.inject(m)
	}
}

// inject routes a freshly sent message through the link-fault rules (drop,
// duplicate, delay) and into the pool. The fate decision happens here, on
// the runner's goroutine, in injection order, and is therefore
// schedule-deterministic.
func (r *Runner) inject(m transport.Message) {
	if r.cfg.LinkFaults != nil {
		fate := r.cfg.LinkFaults.Next(m.From, m.To)
		for i := 0; i < fate.Copies; i++ {
			if fate.Delay > 0 {
				r.delayed = append(r.delayed, delayedMessage{m: m, at: r.steps + fate.Delay})
			} else {
				r.injectNow(m)
			}
		}
		return
	}
	r.injectNow(m)
}

// injectNow adds a message to the pool, reporting it to the observer when
// the hold rule withholds it. The held outcome comes from the pool itself —
// the hold rule's match function is never re-evaluated, so an observer
// cannot perturb stateful rules (part of the observer-passivity guarantee).
func (r *Runner) injectNow(m transport.Message) {
	stamped, held := r.pool.Add(m)
	if held && r.cfg.Observer != nil {
		r.cfg.Observer.Observe(Event{Type: EventHold, Step: r.steps, Message: stamped})
	}
}

// releaseDelayed moves matured link-fault-delayed messages into the pool,
// in their original injection order; force releases everything (the
// finite-delay guarantee at quiescence).
func (r *Runner) releaseDelayed(force bool) {
	if len(r.delayed) == 0 {
		return
	}
	keep := r.delayed[:0]
	for _, d := range r.delayed {
		if force || d.at <= r.steps {
			r.injectNow(d.m)
		} else {
			keep = append(keep, d)
		}
	}
	r.delayed = keep
}

// releaseHeld re-injects withheld messages, reporting the release.
func (r *Runner) releaseHeld() {
	if held := r.pool.HeldCount(); held > 0 && r.cfg.Observer != nil {
		r.cfg.Observer.Observe(Event{Type: EventRelease, Step: r.steps, Count: held})
	}
	r.pool.ReleaseHeld()
}

// Steps returns the number of deliveries so far.
func (r *Runner) Steps() int { return r.steps }

// Stats returns the execution's message statistics.
func (r *Runner) Stats() *transport.Stats { return r.stats }

// TraceString renders the recorded trace one delivery per line — the byte
// format the determinism and reference-equivalence tests compare.
func (r *Runner) TraceString() string {
	var b strings.Builder
	for _, m := range r.trace {
		b.WriteString(m.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Handler returns the handler for node id.
func (r *Runner) Handler(id int) Handler { return r.handlers[id] }

// Outputs collects the outputs of the given nodes; the bool result is false
// if any of them has not decided.
func (r *Runner) Outputs(set graph.Set) (map[int]float64, bool) {
	out := make(map[int]float64, set.Count())
	all := true
	set.ForEach(func(v int) bool {
		x, done := r.handlers[v].Output()
		if !done {
			all = false
			return true
		}
		out[v] = x
		return true
	})
	return out, all
}
