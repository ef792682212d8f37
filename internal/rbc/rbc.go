// Package rbc implements Bracha-style reliable broadcast for complete
// networks with n > 3f, the substrate of the Abraham–Amit–Dolev baseline
// [1] that this paper generalizes to directed networks. The classic
// INIT/ECHO/READY protocol guarantees that all nonfaulty nodes deliver the
// same content per (origin, tag) slot, and that they deliver at all if the
// origin is nonfaulty.
package rbc

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Content is an opaque broadcast payload. Equal is structural identity:
// two contents count toward the same quorum exactly when Equal holds, so it
// must be an equivalence relation and must not depend on pointer identity.
type Content interface {
	Equal(Content) bool
}

// Num is a float64 broadcast content identified by its exact bit pattern,
// so distinct NaN payloads and signed zeros stay distinct contents. It is
// shared by the approximate tier (aad reports reference it) and the exact
// tier (acs value broadcasts).
type Num float64

// Equal implements Content.
func (v Num) Equal(c Content) bool {
	w, ok := c.(Num)
	return ok && math.Float64bits(float64(v)) == math.Float64bits(float64(w))
}

// Phase is the protocol step of an RBC message.
type Phase int

// Message phases.
const (
	PhaseInit Phase = iota + 1
	PhaseEcho
	PhaseReady
)

func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "INIT"
	case PhaseEcho:
		return "ECHO"
	case PhaseReady:
		return "READY"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Msg is the wire payload of the broadcast protocol.
type Msg struct {
	Phase   Phase
	Origin  int
	Tag     string // caller-chosen slot label, e.g. "r3/value"
	Content Content
}

// Kind implements transport.Payload. The node runtime calls it once per
// sent frame, so the valid phases return constants.
func (m Msg) Kind() string {
	switch m.Phase {
	case PhaseInit:
		return "RBC-INIT"
	case PhaseEcho:
		return "RBC-ECHO"
	case PhaseReady:
		return "RBC-READY"
	default:
		return "RBC-" + m.Phase.String()
	}
}

// Carried implements transport.Valued: a Num content is carried, the
// origin's own in INIT and relayed in ECHO and READY; any other content
// carries no number.
func (m Msg) Carried() (float64, bool, bool) {
	num, ok := m.Content.(Num)
	return float64(num), m.Phase == PhaseInit, ok
}

// WithCarried implements transport.Valued.
func (m Msg) WithCarried(x float64) transport.Payload { m.Content = Num(x); return m }

// Delivery is a reliably delivered broadcast.
type Delivery struct {
	Origin  int
	Tag     string
	Content Content
}

// tally is one distinct content a slot has seen, with the number of
// senders whose counted ECHO / READY carried it.
type tally struct {
	content Content
	echoes  int
	readies int
}

// slotState is one (tag, origin) broadcast. Per sender only the first ECHO
// and the first READY are counted — an honest Bracha sender emits exactly
// one of each per slot — so echoed/readied are the dedup masks for the
// whole slot, every sender is counted under at most one content per phase,
// and contents holds at most 2n+1 entries (the origin's INIT, n first
// ECHOs, n first READYs) whatever a faulty peer sends.
type slotState struct {
	sentEcho  bool
	sentReady bool
	delivered bool
	echoed    graph.Set
	readied   graph.Set
	contents  []tally
}

// intern returns the index of content in s.contents, appending it when no
// Equal content is there yet.
func (s *slotState) intern(c Content) int {
	for i := range s.contents {
		if s.contents[i].content.Equal(c) {
			return i
		}
	}
	s.contents = append(s.contents, tally{content: c})
	return len(s.contents) - 1
}

// Broadcaster is the per-node reliable-broadcast engine. It is driven by
// the owning handler's event loop (single goroutine), so it needs no
// internal locking.
type Broadcaster struct {
	n, f     int
	id       int
	tagIndex func(tag string) int
	slots    []*slotState // tagIndex(tag)*n + origin; nil until first used
	dropped  int
	hook     func(Delivery, *sim.Outbox)
}

// New returns a Broadcaster for node id in an n-node clique tolerating f
// Byzantine faults; it requires n > 3f.
//
// The owning machine fixes the slot space up front: tagIndex maps each tag
// it uses to an index in [0, tags) and every other string to a negative
// value. It must be injective on the accepted tags — two spellings of one
// logical slot ("r1/value", "r01/value") would otherwise be two broadcasts
// by one origin, which breaks agreement for whoever merges them later. A
// message whose tag has no index or whose origin is outside [0, n) belongs
// to no slot and is dropped, so slot memory is bounded by tags·n.
func New(n, f, id, tags int, tagIndex func(tag string) int) (*Broadcaster, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("rbc: n=%d must exceed 3f=%d", n, 3*f)
	}
	return &Broadcaster{n: n, f: f, id: id, tagIndex: tagIndex, slots: make([]*slotState, tags*n)}, nil
}

// OnDeliver registers fn as the delivery hook: every delivery is handed to
// fn at the moment it happens, with the outbox that is live at that point,
// in addition to being returned from Broadcast/Handle. fn may re-enter the
// Broadcaster (e.g. start the next round's Broadcast); slot state is
// monotone, so re-entrant calls are safe on the single-goroutine event
// loops that drive it. Register before the first Broadcast or Handle.
func (b *Broadcaster) OnDeliver(fn func(Delivery, *sim.Outbox)) { b.hook = fn }

// Dropped counts the messages Handle discarded without counting them
// toward any quorum: no slot (unknown tag, origin out of range), a sender
// outside [0, n), an INIT not from its origin or after the first, and any
// ECHO or READY after the sender's first for that slot.
func (b *Broadcaster) Dropped() int { return b.dropped }

// slot returns the state of (tag, origin), or nil when the pair addresses
// no slot.
func (b *Broadcaster) slot(tag string, origin int) *slotState {
	ti := b.tagIndex(tag)
	if ti < 0 || origin < 0 || origin >= b.n {
		return nil
	}
	i := ti*b.n + origin
	if b.slots[i] == nil {
		b.slots[i] = &slotState{}
	}
	return b.slots[i]
}

// Broadcast initiates a reliable broadcast of content under the given tag.
// The INIT is sent to all neighbors and self-processed; resulting
// deliveries (possible in a one-node system) are returned.
func (b *Broadcaster) Broadcast(tag string, content Content, out *sim.Outbox) []Delivery {
	msg := Msg{Phase: PhaseInit, Origin: b.id, Tag: tag, Content: content}
	out.Broadcast(msg)
	return b.Handle(transport.Message{From: b.id, To: b.id, Payload: msg}, out)
}

// Handle processes one incoming RBC message, emitting any protocol messages
// through out and returning newly delivered broadcasts.
func (b *Broadcaster) Handle(m transport.Message, out *sim.Outbox) []Delivery {
	msg, ok := m.Payload.(Msg)
	if !ok || msg.Content == nil || m.From < 0 || m.From >= b.n {
		b.dropped++
		return nil
	}
	s := b.slot(msg.Tag, msg.Origin)
	if s == nil {
		b.dropped++
		return nil
	}
	return b.handle(s, m.From, msg, out)
}

// handle is Handle past slot resolution; the node's own ECHO and READY
// re-enter here.
func (b *Broadcaster) handle(s *slotState, from int, msg Msg, out *sim.Outbox) []Delivery {
	switch msg.Phase {
	case PhaseInit:
		// Only the origin itself may INIT its slot; first INIT wins.
		if from != msg.Origin || s.sentEcho {
			b.dropped++
			return nil
		}
		s.sentEcho = true
		msg.Phase = PhaseEcho
		out.Broadcast(msg)
		return b.handle(s, b.id, msg, out)
	case PhaseEcho:
		if !s.echoed.Insert(from) {
			b.dropped++
			return nil
		}
		ci := s.intern(msg.Content)
		s.contents[ci].echoes++
		return b.maybeAdvance(s, ci, msg, out)
	case PhaseReady:
		if !s.readied.Insert(from) {
			b.dropped++
			return nil
		}
		ci := s.intern(msg.Content)
		s.contents[ci].readies++
		return b.maybeAdvance(s, ci, msg, out)
	default:
		b.dropped++
		return nil
	}
}

// maybeAdvance applies the READY and delivery thresholds to the content
// the message just counted toward. The self-handled READY can append to
// s.contents, so the tally is re-indexed after it rather than held by
// pointer.
func (b *Broadcaster) maybeAdvance(s *slotState, ci int, msg Msg, out *sim.Outbox) []Delivery {
	var deliveries []Delivery
	echoThreshold := (b.n + b.f + 2) / 2 // ceil((n+f+1)/2)
	if t := s.contents[ci]; !s.sentReady && (t.echoes >= echoThreshold || t.readies >= b.f+1) {
		s.sentReady = true
		ready := Msg{Phase: PhaseReady, Origin: msg.Origin, Tag: msg.Tag, Content: t.content}
		out.Broadcast(ready)
		deliveries = b.handle(s, b.id, ready, out)
	}
	if t := s.contents[ci]; !s.delivered && t.readies >= 2*b.f+1 {
		s.delivered = true
		d := Delivery{Origin: msg.Origin, Tag: msg.Tag, Content: t.content}
		deliveries = append(deliveries, d)
		if b.hook != nil {
			b.hook(d, out)
		}
	}
	return deliveries
}
