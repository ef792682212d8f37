// Package iterative implements the local iterative trimmed-mean algorithm
// family (W-MSR style) studied by LeBlanc et al. [13] and Vaidya–Tseng–
// Liang [25], the paper's related-work baseline. Nodes exchange values only
// with direct neighbors and trim up to f extreme values per side before
// averaging.
//
// These algorithms need a strictly stronger topological condition
// (robustness) than the paper's 3-reach: experiment E9 shows a graph that
// satisfies 3-reach — where algorithm BW converges — on which the iterative
// update provably stalls, because each clique trims away the only values
// arriving from the other side. This reproduces the paper's point that
// local algorithms cannot be resilience-optimal in directed networks.
package iterative

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ValPayload carries one round's state value to direct out-neighbors.
type ValPayload struct {
	Round int
	Value float64
}

// Kind implements transport.Payload.
func (ValPayload) Kind() string { return "ITER-VAL" }

// Carried implements transport.Valued: every value is the sender's own.
func (p ValPayload) Carried() (float64, bool, bool) { return p.Value, true, true }

// WithCarried implements transport.Valued.
func (p ValPayload) WithCarried(x float64) transport.Payload { p.Value = x; return p }

// eagerRounds is how many rounds of state a machine takes at construction.
// It covers every default round count short of the cap (bw.RoundsFor stops
// at 65), so a run only grows its state when a scenario sets Rounds beyond
// it — and Scenario.Rounds has no upper bound, so the state cannot simply
// be sized by it.
const eagerRounds = 32

// Machine is the iterative protocol endpoint; it implements sim.Handler.
//
// Round state is a dense block with one row per round and one column per
// in-neighbor. Row r−1 holds, in its first counts[r−1] cells, the round-r
// values in arrival order; seen marks the (round, sender position) pairs
// already counted, so the first value per pair wins. The block has rows
// for eagerRounds rounds from the start and grows by whole rounds, never
// past rounds, when a message or the node itself reaches a later one.
type Machine struct {
	f      int
	id     int
	rounds int
	input  float64
	in     []int // g.In(id), ascending: a sender's index here is its column
	need   int   // values a round waits for

	cur     int
	x       float64
	vals    []float64
	seen    []bool
	counts  []int32
	output  float64
	done    bool
	history []float64
}

var _ sim.Handler = (*Machine)(nil)

// Arena backs the machines of one run with a few shared allocations in
// place of five per machine. The zero value is ready; hand the same Arena
// to every NewMachine call of the run, from one goroutine. Machines touch
// it at construction only, so they may then run concurrently.
type Arena struct {
	machines      chunk[Machine]
	vals, history chunk[float64]
	seen          chunk[bool]
	counts        chunk[int32]
}

// chunk is a bump allocator that is told, with every request, how much the
// whole run will ask for. The first request is served exactly — a live
// node builds one machine and stops there — and the second allocates the
// rest of the run in one piece.
type chunk[T any] struct {
	free   []T
	carved int
}

func (c *chunk[T]) take(n, total int) []T {
	if n > len(c.free) {
		size := n
		if c.carved > 0 {
			size = max(n, total-c.carved)
		}
		c.free = make([]T, size)
	}
	c.carved += n
	// Capacity stops at n: appending to one carving must not overwrite the
	// next.
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// NewMachine builds an iterative node that runs the given number of rounds.
// Its state comes from arena; nil means the machine is on its own.
func NewMachine(g *graph.Graph, f, id, rounds int, input float64, arena *Arena) (*Machine, error) {
	if f < 0 || rounds < 0 {
		return nil, fmt.Errorf("iterative: invalid f=%d rounds=%d", f, rounds)
	}
	if id < 0 || id >= g.N() {
		return nil, fmt.Errorf("iterative: node %d outside graph order %d", id, g.N())
	}
	if arena == nil {
		arena = new(Arena)
	}
	in := g.In(id)
	rows := min(rounds, eagerRounds)
	m := &arena.machines.take(1, g.N())[0]
	*m = Machine{
		f: f, id: id, rounds: rounds, input: input,
		in: in, need: max(len(in)-f, 0),
		vals:    arena.vals.take(rows*len(in), rows*g.M()),
		seen:    arena.seen.take(rows*len(in), rows*g.M()),
		counts:  arena.counts.take(rows, rows*g.N()),
		history: arena.history.take(rows, rows*g.N())[:0],
	}
	return m, nil
}

// ID implements sim.Handler.
func (m *Machine) ID() int { return m.id }

// Output implements sim.Handler.
func (m *Machine) Output() (float64, bool) { return m.output, m.done }

// History returns x after each completed round.
func (m *Machine) History() []float64 { return m.history }

// Start implements sim.Handler.
func (m *Machine) Start(out *sim.Outbox) {
	m.x = m.input
	if m.rounds == 0 {
		m.output, m.done = m.x, true
		return
	}
	m.cur = 1
	out.Broadcast(ValPayload{Round: 1, Value: m.x})
	m.tryAdvance(out)
}

// Deliver implements sim.Handler. It drops what cannot count: a round
// outside [1, rounds] or already completed, a sender that is not an
// in-neighbor, a second value for the same (round, sender), and a value
// that is not a finite number — NaN sorts below everything yet compares
// below nothing, so the trim would keep it and it would poison the mean.
// A faulty in-neighbor sending one is treated like a silent one, which the
// indegree−f wait already allows for.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	p, ok := msg.Payload.(ValPayload)
	if !ok || p.Round < m.cur || p.Round < 1 || p.Round > m.rounds ||
		math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		return
	}
	col, ok := slices.BinarySearch(m.in, msg.From)
	if !ok {
		return
	}
	if p.Round > len(m.counts) {
		m.grow(p.Round)
	}
	row := (p.Round - 1) * len(m.in)
	if m.seen[row+col] {
		return
	}
	m.seen[row+col] = true
	m.vals[row+int(m.counts[p.Round-1])] = p.Value
	m.counts[p.Round-1]++
	if p.Round == m.cur {
		m.tryAdvance(out)
	}
}

// grow extends the block to cover round r: to twice its rows when that is
// enough, so repeated growth stays linear, and never past rounds. A run the
// honest nodes complete reaches rounds rows on its own, so naming a late
// round early costs a faulty in-neighbor's victim nothing it would not
// spend anyway.
func (m *Machine) grow(r int) {
	rows := min(m.rounds, max(r, 2*len(m.counts)))
	m.vals = extended(m.vals, rows*len(m.in))
	m.seen = extended(m.seen, rows*len(m.in))
	m.counts = extended(m.counts, rows)
}

// extended returns a copy of s lengthened to n with zero values.
func extended[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// tryAdvance applies the W-MSR update once enough in-neighbor values for
// the current round have arrived. The node waits for indegree−f distinct
// senders (it cannot wait for all: up to f in-neighbors may be faulty and
// silent).
func (m *Machine) tryAdvance(out *sim.Outbox) {
	for !m.done {
		if m.cur > len(m.counts) {
			m.grow(m.cur)
		}
		got := int(m.counts[m.cur-1])
		if got < m.need {
			return
		}
		row := (m.cur - 1) * len(m.in)
		m.x = m.trimmedUpdate(m.vals[row : row+got])
		m.history = append(m.history, m.x)
		if m.cur == m.rounds {
			m.output, m.done = m.x, true
			return
		}
		m.cur++
		out.Broadcast(ValPayload{Round: m.cur, Value: m.x})
	}
}

// trimmedUpdate is the W-MSR rule: among received values, discard up to f
// strictly above own value and up to f strictly below, then average the
// survivors together with the own value. It sorts vals in place; a round's
// row is a multiset, so the order it is left in does not matter.
func (m *Machine) trimmedUpdate(vals []float64) float64 {
	slices.Sort(vals)
	lo := 0
	for lo < len(vals) && lo < m.f && vals[lo] < m.x {
		lo++
	}
	hi := len(vals)
	trimmedHigh := 0
	for hi > lo && trimmedHigh < m.f && vals[hi-1] > m.x {
		hi--
		trimmedHigh++
	}
	sum := m.x
	count := 1
	for _, v := range vals[lo:hi] {
		sum += v
		count++
	}
	return sum / float64(count)
}
