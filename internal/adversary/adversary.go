// Package adversary provides the fault behaviors used in the experiments:
// crash faults (including mid-broadcast partial sends), silent nodes, and
// Byzantine nodes that produce protocol-shaped but corrupted traffic —
// equivocation, relay tampering, extreme-value injection, COMPLETE-set
// forgery and seeded random misbehavior. It also hosts the Theorem 18
// indistinguishability construction (necessity.go).
package adversary

import (
	"math/rand"
	"slices"

	"repro/internal/aba"
	"repro/internal/bw"
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

// rewrite is the one path of every value-lying kind: it replaces the value
// a transport.Valued payload carries with fn's — in the node's own
// originations when own is set, in its relays otherwise — and passes every
// other payload through. A kind therefore acts on every protocol whose
// payloads state their value.
func rewrite(own bool, fn func(rng *rand.Rand, to int, x float64) float64) Mutator {
	return func(rng *rand.Rand, m transport.Message) []transport.Payload {
		if v, ok := m.Payload.(transport.Valued); ok {
			if x, o, ok := v.Carried(); ok && o == own {
				return []transport.Payload{v.WithCarried(fn(rng, m.To, x))}
			}
		}
		return []transport.Payload{m.Payload}
	}
}

// equivocate behaves honestly for the first after originations (counted
// across all out-neighbors), then reports a different value to each
// out-neighbor: x + step·(to+1). The delay defeats auditors that only
// inspect a node's early traffic. Relays pass through: this strategy lies
// about inputs, it does not corrupt the transport.
func equivocate(step float64, after int) Mutator {
	sent := 0
	return rewrite(true, func(_ *rand.Rand, to int, x float64) float64 {
		if sent++; sent <= after {
			return x
		}
		return x + step*float64(to+1)
	})
}

// flipVotes flips an ABA vote toward odd-id out-neighbors: the two-faced
// vote the binding-value rule must contain. ABA's messages carry bits, not
// values, so this is equivocate's own second layer.
func flipVotes(_ *rand.Rand, m transport.Message) []transport.Payload {
	if v, ok := m.Payload.(aba.Msg); ok {
		v.Value ^= m.To & 1
		return []transport.Payload{v}
	}
	return []transport.Payload{m.Payload}
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

// shiftCompletes adds by(rng) to every entry value of each BW COMPLETE the
// node originates or relays, making the reported message sets inconsistent
// with the genuine flood. An entry set carries many values, so it is the
// one payload that takes its own mutation.
func shiftCompletes(by func(*rand.Rand) float64) Mutator {
	return func(rng *rand.Rand, m transport.Message) []transport.Payload {
		c, ok := m.Payload.(bw.CompletePayload)
		if !ok {
			return []transport.Payload{m.Payload}
		}
		c.Entries = slices.Clone(c.Entries)
		for i := range c.Entries {
			c.Entries[i].Value += by(rng)
		}
		return []transport.Payload{c}
	}
}
