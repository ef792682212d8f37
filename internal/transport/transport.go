// Package transport models the paper's asynchronous message-passing network:
// reliable directed links with arbitrary, unknown, finite delays. Messages
// in flight live in a pool; a pluggable delivery policy picks which pending
// message is delivered next, which realizes adversarial asynchrony while
// keeping executions deterministic under a fixed seed. Hold rules keep
// selected edges' messages undeliverable until a predicate fires — the
// bounded-but-arbitrary delays used by the Theorem 18 indistinguishability
// construction.
//
// # Determinism contract
//
// The pool's pending order is a pure function of the Add/Take/ReleaseHeld
// call sequence: Add appends, Take swap-removes (the last pending message
// fills the vacated slot), and ReleaseHeld appends the held messages in
// their original send order. No map iteration, goroutine interleaving or
// other nondeterminism ever influences the order, so an index-based policy
// such as RandomPolicy replays the exact same schedule for the same seed.
// Changing any of these three behaviors is a schedule-breaking change and
// must be flagged as such.
package transport

import (
	"fmt"
	"math/rand"
)

// Payload is the protocol-level content of a message. Kind is used for
// message accounting and tracing.
type Payload interface {
	Kind() string
}

// Valued is a payload that may carry a vertex's input or state value.
// Carried reports it, whether the sender originated it rather than relayed
// it, and whether there is one; WithCarried returns a copy carrying x.
type Valued interface {
	Payload
	Carried() (x float64, own, ok bool)
	WithCarried(x float64) Payload
}

// Message is a message in flight on a directed edge.
type Message struct {
	From, To int
	Payload  Payload
	Seq      uint64 // global send order, assigned by the pool
}

// String renders the message for traces.
func (m Message) String() string {
	return fmt.Sprintf("#%d %d->%d %s", m.Seq, m.From, m.To, m.Payload.Kind())
}

// PendingView is a read-only window onto a pool's deliverable messages.
// Policies receive a view instead of the backing slice, so they cannot
// perturb the pool's determinism-bearing order (see the package contract).
// The view also exposes the pool's Seq-ordered index, letting order-based
// policies find the oldest/newest pending message in O(log n) amortized
// instead of scanning.
type PendingView struct {
	p *Pool
}

// Len returns the number of deliverable messages.
func (v PendingView) Len() int { return len(v.p.pending) }

// At returns the pending message at index i (0 <= i < Len).
func (v PendingView) At(i int) Message { return v.p.arena[v.p.pending[i]].msg }

// OldestIndex returns the index of the pending message with the smallest
// Seq (the oldest send). Panics on an empty view.
func (v PendingView) OldestIndex() int { return v.p.oldestIndex() }

// NewestIndex returns the index of the pending message with the largest
// Seq (the most recent send). Panics on an empty view.
func (v PendingView) NewestIndex() int { return v.p.newestIndex() }

// Policy selects which pending message is delivered next.
type Policy interface {
	// Pick returns an index into the view (view.Len() > 0).
	Pick(pending PendingView) int
}

// RandomPolicy delivers a uniformly random pending message; with a fixed
// seed the whole execution is deterministic (the pool's pending order is
// itself deterministic — see the package contract). This is the default
// model of asynchrony for the experiments.
type RandomPolicy struct {
	rng *rand.Rand
}

// NewRandomPolicy returns a RandomPolicy with the given seed.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Policy.
func (p *RandomPolicy) Pick(pending PendingView) int {
	return p.rng.Intn(pending.Len())
}

// FIFOPolicy delivers messages in global send order (the most synchronous
// schedule); useful as a baseline and for debugging.
type FIFOPolicy struct{}

// Pick implements Policy.
func (FIFOPolicy) Pick(pending PendingView) int {
	return pending.OldestIndex()
}

// LIFOPolicy delivers the most recently sent message first — a pathological
// but legal asynchronous schedule that stresses the event-driven conditions.
type LIFOPolicy struct{}

// Pick implements Policy.
func (LIFOPolicy) Pick(pending PendingView) int {
	return pending.NewestIndex()
}

// BoundedDelayPolicy models partial synchrony: deliveries are random, but no
// message is overtaken by more than Bound younger deliveries — once a
// message has waited that long it is delivered first. Asynchronous
// algorithms must of course keep working under this (it is a subset of the
// asynchronous schedules); it also gives experiments a knob between fully
// random (Bound = ∞) and FIFO (Bound = 0).
type BoundedDelayPolicy struct {
	Bound     uint64
	rng       *rand.Rand
	delivered uint64
}

// NewBoundedDelayPolicy returns a seeded policy with the given overtaking
// bound.
func NewBoundedDelayPolicy(bound uint64, seed int64) *BoundedDelayPolicy {
	return &BoundedDelayPolicy{Bound: bound, rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Policy.
func (p *BoundedDelayPolicy) Pick(pending PendingView) int {
	oldest := pending.OldestIndex()
	p.delivered++
	if p.delivered > pending.At(oldest).Seq+p.Bound {
		return oldest
	}
	return p.rng.Intn(pending.Len())
}

// HoldRule withholds matching messages from delivery until Release is
// called. Held messages are still "in flight" (delays are finite but
// unbounded); the runner re-injects them on release.
type HoldRule struct {
	// Match reports whether the message is subject to the hold.
	Match func(Message) bool
	// released flips once; afterwards Match is ignored.
	released bool
}

// NewHoldRule builds a hold rule from a match function.
func NewHoldRule(match func(Message) bool) *HoldRule {
	return &HoldRule{Match: match}
}

// HoldEdges builds a hold rule matching all messages on the given directed
// edges.
func HoldEdges(edges map[[2]int]bool) *HoldRule {
	return NewHoldRule(func(m Message) bool {
		return edges[[2]int{m.From, m.To}]
	})
}

// Release lifts the hold.
func (h *HoldRule) Release() { h.released = true }

// Released reports whether the hold has been lifted.
func (h *HoldRule) Released() bool { return h.released }

// Holds reports whether the message is currently withheld.
func (h *HoldRule) Holds(m Message) bool {
	return !h.released && h.Match(m)
}

// Stats accumulates message accounting for an execution.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int // sends over non-edges (faulty behavior), discarded
	kinds     KindCounts
}

// KindCounts counts messages per payload kind, for the simulator's Stats
// and the live node's alike. A short linear array instead of a map:
// protocols use a handful of kind strings (all constants, so the == fast
// path is a pointer compare), and the per-send map assignment was half the
// pool's hot-path profile.
type KindCounts []kindCount

type kindCount struct {
	name string
	n    int
}

// Add counts one message of the kind.
func (c *KindCounts) Add(kind string) {
	for i := range *c {
		if (*c)[i].name == kind {
			(*c)[i].n++
			return
		}
	}
	*c = append(*c, kindCount{name: kind, n: 1})
}

// Map returns the counts keyed by kind, built on demand.
func (c KindCounts) Map() map[string]int {
	out := make(map[string]int, len(c))
	for _, kc := range c {
		out[kc.name] = kc.n
	}
	return out
}

// NewStats returns empty statistics.
func NewStats() *Stats {
	return &Stats{}
}

// ByKind returns the per-kind send counts as a map.
func (s *Stats) ByKind() map[string]int { return s.kinds.Map() }

func (s *Stats) recordSend(m Message) {
	s.Sent++
	s.kinds.Add(m.Payload.Kind())
}

// RecordDrop counts a message that was discarded before entering the pool.
func (s *Stats) RecordDrop() { s.Dropped++ }

func (s *Stats) recordDelivery() { s.Delivered++ }

// slot is one arena cell: the message plus the bookkeeping that lets every
// structure over the pool update in O(1)–O(log n) without auxiliary maps.
type slot struct {
	msg     Message
	pendPos int32 // index in pending (-1 when held)
	minPos  int32 // position in the oldest-heap (when indexed)
	maxPos  int32 // position in the newest-heap (when indexed)
}

// seqHeap is a binary heap of arena indices ordered by message Seq; min
// selects between oldest-first and newest-first. Heap positions are stored
// back into the arena slots, so removal is a true O(log n) delete — no lazy
// tombstones, no Seq-to-position map, no garbage accumulating across a
// run.
type seqHeap struct {
	min   bool
	items []int32
}

func (h *seqHeap) before(arena []slot, a, b int32) bool {
	if h.min {
		return arena[a].msg.Seq < arena[b].msg.Seq
	}
	return arena[a].msg.Seq > arena[b].msg.Seq
}

func (h *seqHeap) setPos(arena []slot, ai int32, pos int32) {
	if h.min {
		arena[ai].minPos = pos
	} else {
		arena[ai].maxPos = pos
	}
}

func (h *seqHeap) push(arena []slot, ai int32) {
	h.items = append(h.items, ai)
	h.siftUp(arena, len(h.items)-1)
}

func (h *seqHeap) removeAt(arena []slot, pos int32) {
	last := len(h.items) - 1
	if int(pos) != last {
		h.items[pos] = h.items[last]
		h.items = h.items[:last]
		h.setPos(arena, h.items[pos], pos)
		if !h.siftDown(arena, int(pos)) {
			h.siftUp(arena, int(pos))
		}
	} else {
		h.items = h.items[:last]
	}
}

func (h *seqHeap) siftUp(arena []slot, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(arena, h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		h.setPos(arena, h.items[i], int32(i))
		i = parent
	}
	h.setPos(arena, h.items[i], int32(i))
}

// siftDown reports whether anything moved, so removeAt can fall back to
// sifting up (the swapped-in element may be smaller than the removed one).
func (h *seqHeap) siftDown(arena []slot, i int) bool {
	moved := false
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < len(h.items) && h.before(arena, h.items[l], h.items[next]) {
			next = l
		}
		if r < len(h.items) && h.before(arena, h.items[r], h.items[next]) {
			next = r
		}
		if next == i {
			break
		}
		moved = true
		h.items[i], h.items[next] = h.items[next], h.items[i]
		h.setPos(arena, h.items[i], int32(i))
		i = next
	}
	h.setPos(arena, h.items[i], int32(i))
	return moved
}

// Pool is the multiset of in-flight messages plus held messages. Messages
// live in a reusable arena backed by a freelist — a delivered message's
// slot is recycled by the next send, so a run's storage stops growing once
// it reaches its in-flight high-water mark. The pending order (arena
// indices) follows the package determinism contract exactly: Add appends,
// Take swap-removes, ReleaseHeld appends in send order. A Seq index (two
// position-tracked heaps) is built lazily on the first ordered query and
// maintained incrementally afterwards, so index-free policies such as
// RandomPolicy pay nothing for it and ordered policies pick in O(log n)
// with no per-message map traffic.
type Pool struct {
	arena   []slot
	free    []int32 // recycled arena slots
	pending []int32 // deliverable, in determinism-contract order
	held    []int32 // withheld, in send order
	hold    *HoldRule
	nextSeq uint64
	stats   *Stats

	indexed bool    // Seq index built?
	oldest  seqHeap // min-heap over pending slots
	newest  seqHeap // max-heap over pending slots
}

// NewPool returns an empty pool. hold may be nil.
func NewPool(hold *HoldRule, stats *Stats) *Pool {
	return &Pool{hold: hold, stats: stats, oldest: seqHeap{min: true}}
}

// NewPoolSized returns an empty pool with storage preallocated for about
// capacity in-flight messages — one allocation up front instead of a
// doubling series during the run's ramp-up.
func NewPoolSized(hold *HoldRule, stats *Stats, capacity int) *Pool {
	p := NewPool(hold, stats)
	if capacity > 0 {
		p.arena = make([]slot, 0, capacity)
		p.pending = make([]int32, 0, capacity)
		p.free = make([]int32, 0, capacity)
	}
	return p
}

// buildIndex constructs the Seq index from the current pending set; called
// on the first ordered query, after which Add/Take maintain it.
func (p *Pool) buildIndex() {
	p.indexed = true
	p.oldest = seqHeap{min: true, items: make([]int32, 0, cap(p.pending))}
	p.newest = seqHeap{items: make([]int32, 0, cap(p.pending))}
	for _, ai := range p.pending {
		p.oldest.push(p.arena, ai)
		p.newest.push(p.arena, ai)
	}
}

// alloc places m into an arena slot and returns its index.
func (p *Pool) alloc(m Message) int32 {
	if n := len(p.free); n > 0 {
		ai := p.free[n-1]
		p.free = p.free[:n-1]
		p.arena[ai].msg = m
		return ai
	}
	p.arena = append(p.arena, slot{msg: m})
	return int32(len(p.arena) - 1)
}

// Add inserts a newly sent message. It returns the message with its
// assigned Seq plus whether the hold rule withheld it, so callers can
// observe the outcome without re-evaluating the rule's (possibly stateful)
// match function.
func (p *Pool) Add(m Message) (stamped Message, held bool) {
	m.Seq = p.nextSeq
	p.nextSeq++
	p.stats.recordSend(m)
	if p.hold != nil && p.hold.Holds(m) {
		ai := p.alloc(m)
		p.arena[ai].pendPos = -1
		p.held = append(p.held, ai)
		return m, true
	}
	p.append(p.alloc(m))
	return m, false
}

// AddAll injects a batch of messages exactly as successive Add calls would
// — same Seq assignment, same pending order, same statistics — with the
// per-message branching amortized over the batch. Callers that need the
// per-message held outcome (observers) use Add instead.
func (p *Pool) AddAll(msgs []Message) {
	if p.hold != nil && !p.hold.released {
		for _, m := range msgs {
			p.Add(m)
		}
		return
	}
	for _, m := range msgs {
		m.Seq = p.nextSeq
		p.nextSeq++
		p.stats.recordSend(m)
		p.append(p.alloc(m))
	}
}

func (p *Pool) append(ai int32) {
	p.arena[ai].pendPos = int32(len(p.pending))
	p.pending = append(p.pending, ai)
	if p.indexed {
		p.oldest.push(p.arena, ai)
		p.newest.push(p.arena, ai)
	}
}

// View returns a read-only view of the deliverable messages, the form in
// which policies observe the pool.
func (p *Pool) View() PendingView { return PendingView{p: p} }

// HeldCount returns the number of withheld messages.
func (p *Pool) HeldCount() int { return len(p.held) }

// Take removes and returns the pending message at index i: an O(1)
// swap-remove, with the last pending message filling the vacated slot (part
// of the package determinism contract). The vacated arena slot goes back on
// the freelist for the next send.
func (p *Pool) Take(i int) Message {
	ai := p.pending[i]
	last := len(p.pending) - 1
	if i != last {
		moved := p.pending[last]
		p.pending[i] = moved
		p.arena[moved].pendPos = int32(i)
	}
	p.pending = p.pending[:last]
	if p.indexed {
		p.oldest.removeAt(p.arena, p.arena[ai].minPos)
		p.newest.removeAt(p.arena, p.arena[ai].maxPos)
	}
	m := p.arena[ai].msg
	p.arena[ai].msg.Payload = nil // drop the payload reference for GC
	p.free = append(p.free, ai)
	p.stats.recordDelivery()
	return m
}

func (p *Pool) oldestIndex() int {
	if !p.indexed {
		p.buildIndex()
	}
	if len(p.oldest.items) == 0 {
		panic("transport: empty pending pool")
	}
	return int(p.arena[p.oldest.items[0]].pendPos)
}

func (p *Pool) newestIndex() int {
	if !p.indexed {
		p.buildIndex()
	}
	if len(p.newest.items) == 0 {
		panic("transport: empty pending pool")
	}
	return int(p.arena[p.newest.items[0]].pendPos)
}

// ReleaseHeld moves all held messages into the pending pool in their
// original send order (called after the hold rule's release condition
// fires).
func (p *Pool) ReleaseHeld() {
	if p.hold != nil {
		p.hold.Release()
	}
	for _, ai := range p.held {
		p.append(ai)
	}
	p.held = p.held[:0]
}

// PendingEmpty reports whether no message is deliverable right now.
func (p *Pool) PendingEmpty() bool { return len(p.pending) == 0 }
