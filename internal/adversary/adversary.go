// Package adversary provides the fault behaviors used in the experiments:
// crash faults (including mid-broadcast partial sends), silent nodes, and
// Byzantine nodes that produce protocol-shaped but corrupted traffic —
// equivocation, relay tampering, extreme-value injection, COMPLETE-set
// forgery and seeded random misbehavior. It also hosts the Theorem 18
// indistinguishability construction (necessity.go).
package adversary

import (
	"math/rand"

	"repro/internal/aba"
	"repro/internal/bw"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Silent is a node that never sends anything: the simplest Byzantine
// behavior (equivalently, a node crashed from the very beginning).
type Silent struct{ NodeID int }

var _ sim.Handler = (*Silent)(nil)

// ID implements sim.Handler.
func (s *Silent) ID() int { return s.NodeID }

// Start implements sim.Handler.
func (s *Silent) Start(*sim.Outbox) {}

// Deliver implements sim.Handler.
func (s *Silent) Deliver(transport.Message, *sim.Outbox) {}

// Output implements sim.Handler; a faulty node has no meaningful output.
func (s *Silent) Output() (float64, bool) { return 0, false }

// Crash wraps an honest handler and crashes it after a given number of
// deliveries. On the crash event only a prefix of the node's outgoing batch
// escapes, modeling a node dying mid-broadcast (crash faults may deliver to
// an arbitrary subset, which is the adversarial power in the crash model).
type Crash struct {
	Inner sim.Handler
	// AfterDeliveries is the number of Deliver events processed before the
	// crash; 0 crashes on the first delivery (Start always runs).
	AfterDeliveries int
	// FinalSends bounds the crash event's escaping sends.
	FinalSends int

	delivered int
	crashed   bool
}

var _ sim.Handler = (*Crash)(nil)

// ID implements sim.Handler.
func (c *Crash) ID() int { return c.Inner.ID() }

// Start implements sim.Handler.
func (c *Crash) Start(out *sim.Outbox) {
	if c.AfterDeliveries < 0 {
		c.crashed = true
		return
	}
	c.Inner.Start(out)
}

// Deliver implements sim.Handler.
func (c *Crash) Deliver(msg transport.Message, out *sim.Outbox) {
	if c.crashed {
		return
	}
	if c.delivered < c.AfterDeliveries {
		c.delivered++
		c.Inner.Deliver(msg, out)
		return
	}
	// Crash event: run the inner handler against a collector and let only a
	// prefix of its sends out.
	c.crashed = true
	col := sim.NewCollector(c.Inner.ID(), out.Graph())
	c.Inner.Deliver(msg, col)
	for i, m := range col.Messages() {
		if i >= c.FinalSends {
			break
		}
		out.Send(m.To, m.Payload)
	}
}

// Output implements sim.Handler. A crashed node never outputs.
func (c *Crash) Output() (float64, bool) { return 0, false }

// Mutator rewrites one outgoing message of a Byzantine node; returning nil
// drops it, returning several fabricates extra traffic. The destination is
// fixed (mutators corrupt content, not routing).
type Mutator func(rng *rand.Rand, m transport.Message) []transport.Payload

// Mutant wraps an honest machine and applies mutators to all of its
// outgoing traffic, producing protocol-shaped Byzantine behavior: message
// pattern and timing of a correct node, contents chosen by the adversary.
type Mutant struct {
	Inner    sim.Handler
	Mutators []Mutator
	Rng      *rand.Rand

	col *sim.Outbox // Inner's sends for the current invocation, reused
}

var _ sim.Handler = (*Mutant)(nil)

// ID implements sim.Handler.
func (b *Mutant) ID() int { return b.Inner.ID() }

// collector returns the emptied outbox Inner sends into; emit has copied
// everything out of it before the next invocation starts.
func (b *Mutant) collector(out *sim.Outbox) *sim.Outbox {
	if b.col == nil {
		b.col = sim.NewCollector(b.Inner.ID(), out.Graph())
	}
	b.col.Reset()
	return b.col
}

// Start implements sim.Handler.
func (b *Mutant) Start(out *sim.Outbox) {
	col := b.collector(out)
	b.Inner.Start(col)
	b.emit(col.Messages(), out)
}

// Deliver implements sim.Handler.
func (b *Mutant) Deliver(msg transport.Message, out *sim.Outbox) {
	col := b.collector(out)
	b.Inner.Deliver(msg, col)
	b.emit(col.Messages(), out)
}

// Output implements sim.Handler.
func (b *Mutant) Output() (float64, bool) { return 0, false }

func (b *Mutant) emit(msgs []transport.Message, out *sim.Outbox) {
	for _, m := range msgs {
		payloads := []transport.Payload{m.Payload}
		for _, mut := range b.Mutators {
			var next []transport.Payload
			for _, p := range payloads {
				next = append(next, mut(b.Rng, transport.Message{From: m.From, To: m.To, Payload: p})...)
			}
			payloads = next
		}
		for _, p := range payloads {
			out.Send(m.To, p)
		}
	}
}

// EquivocateInput makes the node report a different initial value to every
// out-neighbor. It is protocol-shaped, covering each family's notion of
// "my initial value": BW's round-r origination (the trivial path, entry 0
// of the sender's path table) carries base + step·(to+1); an RBC INIT with
// numeric content (aad's value rounds, acs's input broadcast) carries
// content + step·(to+1), handing
// each receiver a different slot content for the echo quorums to kill or
// agree on; an ABA message flips its bit toward odd-id receivers — a
// two-faced vote the binding-value rule must contain. Relayed/derived
// traffic (echoes, readies, reports) passes through: this strategy lies
// about inputs, it does not corrupt the transport.
func EquivocateInput(step float64) Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		switch v := m.Payload.(type) {
		case bw.ValPayload:
			if v.Entry != 0 {
				return []transport.Payload{m.Payload}
			}
			v.Value += step * float64(m.To+1)
			return []transport.Payload{v}
		case rbc.Msg:
			num, isNum := v.Content.(rbc.Num)
			if v.Phase != rbc.PhaseInit || !isNum {
				return []transport.Payload{m.Payload}
			}
			v.Content = num + rbc.Num(step*float64(m.To+1))
			return []transport.Payload{v}
		case aba.Msg:
			v.Value ^= m.To & 1
			return []transport.Payload{v}
		}
		return []transport.Payload{m.Payload}
	}
}

// TamperRelays corrupts every relayed state value (paths longer than one:
// any entry but the sender's trivial path, entry 0) by applying fn.
func TamperRelays(fn func(float64) float64) Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		v, ok := m.Payload.(bw.ValPayload)
		if !ok || v.Entry == 0 {
			return []transport.Payload{m.Payload}
		}
		v.Value = fn(v.Value)
		return []transport.Payload{v}
	}
}

// ExtremeInput replaces the node's own originations with an extreme value —
// the classic attack Filter-and-Average's trimming must absorb.
func ExtremeInput(x float64) Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		v, ok := m.Payload.(bw.ValPayload)
		if !ok || v.Entry != 0 {
			return []transport.Payload{m.Payload}
		}
		v.Value = x
		return []transport.Payload{v}
	}
}

// DelayedEquivocation behaves honestly for the first after originations,
// then equivocates like EquivocateInput: base + step·(to+1). The delay
// defeats auditors that only inspect a node's early traffic; the mutator
// is stateful (one counter per faulty node, counting originated values
// across all out-neighbors).
func DelayedEquivocation(step float64, after int) Mutator {
	sent := 0
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		v, ok := m.Payload.(bw.ValPayload)
		if !ok || v.Entry != 0 {
			return []transport.Payload{m.Payload}
		}
		if sent++; sent <= after {
			return []transport.Payload{m.Payload}
		}
		v.Value += step * float64(m.To+1)
		return []transport.Payload{v}
	}
}

// SplitInput is the targeted two-faced attack: originations to
// out-neighbors with id <= pivot carry lo, the rest carry hi — the
// adversary partitions its audience into two camps and tells each a
// different story.
func SplitInput(lo, hi float64, pivot int) Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		v, ok := m.Payload.(bw.ValPayload)
		if !ok || v.Entry != 0 {
			return []transport.Payload{m.Payload}
		}
		if m.To <= pivot {
			v.Value = lo
		} else {
			v.Value = hi
		}
		return []transport.Payload{v}
	}
}

// replayHistoryCap bounds the per-destination payload history Replay keeps,
// so long runs do not accumulate unbounded attack state.
const replayHistoryCap = 64

// Replay records the node's outgoing payloads per destination and, with
// probability prob per message, re-sends one previously sent payload
// alongside the current one — duplicated and out-of-order traffic that is
// protocol-shaped but stale.
func Replay(prob float64) Mutator {
	history := make(map[int][]transport.Payload)
	return func(rng *rand.Rand, m transport.Message) []transport.Payload {
		out := []transport.Payload{m.Payload}
		old := history[m.To]
		if len(old) > 0 && rng.Float64() < prob {
			out = append(out, old[rng.Intn(len(old))])
		}
		if len(old) < replayHistoryCap {
			history[m.To] = append(old, m.Payload)
		}
		return out
	}
}

// ForgeCompletes corrupts the entry sets of all COMPLETE messages the node
// originates or relays: entry values are shifted by delta, making the
// reported message sets inconsistent with the genuine flood.
func ForgeCompletes(delta float64) Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		c, ok := m.Payload.(bw.CompletePayload)
		if !ok {
			return []transport.Payload{m.Payload}
		}
		entries := make([]bw.ValEntry, len(c.Entries))
		copy(entries, c.Entries)
		for i := range entries {
			entries[i].Value += delta
		}
		c.Entries = entries
		return []transport.Payload{c}
	}
}

// RandomNoise perturbs every carried value (originations, relays and
// COMPLETE entries) by a uniform offset in [-amp, amp], independently per
// message — a seeded fuzzing adversary.
func RandomNoise(amp float64) Mutator {
	return func(rng *rand.Rand, m transport.Message) []transport.Payload {
		switch p := m.Payload.(type) {
		case bw.ValPayload:
			p.Value += amp * (2*rng.Float64() - 1)
			return []transport.Payload{p}
		case bw.CompletePayload:
			entries := make([]bw.ValEntry, len(p.Entries))
			copy(entries, p.Entries)
			for i := range entries {
				entries[i].Value += amp * (2*rng.Float64() - 1)
			}
			p.Entries = entries
			return []transport.Payload{p}
		default:
			return []transport.Payload{m.Payload}
		}
	}
}
