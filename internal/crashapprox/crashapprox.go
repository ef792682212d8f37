// Package crashapprox implements asynchronous approximate consensus for
// crash faults in directed networks under the 2-reach condition — the
// crash/asynchronous cell of the paper's Table 2 (Theorem 2, due to
// Tseng–Vaidya 2012/2015).
//
// Crash faults never tamper with relayed values, so the Byzantine machinery
// of algorithm BW (redundant paths, COMPLETE verification, f-covers)
// degenerates away. What remains is the skeleton shared with BW: per round,
// flood the state value along all simple paths; run one logical thread per
// candidate crash set Fv; a thread fires when the node has received a value
// along every simple incoming path avoiding Fv (the fullness condition);
// the first fired thread updates the state to the midpoint of all collected
// values. Convergence follows from 2-reach exactly as in the paper's
// Lemma 15: for any two nodes the fired threads' reach sets intersect in a
// common influence node z whose (genuine, untampered) value both have
// collected, so midpoints contract the range by half each round.
//
// Paths are named as BW names them: by entry in the per-vertex path table
// of the simple walk (graph.PathTables, shared by every Proto on a graph of
// the same content), admitted through the in-edge's door.
package crashapprox

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ValPayload is a flooded (round, value, path) message. The path ends at
// the sender, which names it by its entry in its own path table; the
// receiver maps that to its entry for the path extended by itself, and drops
// a message whose entry maps to none (the extension would not be simple).
type ValPayload struct {
	Round int
	Value float64
	Entry int32
}

// Kind implements transport.Payload.
func (ValPayload) Kind() string { return "CRASH-VAL" }

// Proto is the shared static context.
type Proto struct {
	G          *graph.Graph
	F          int
	K, Eps     float64
	Rounds     int
	PathBudget int
	faultSets  []graph.Set
	paths      *graph.PathTables
}

// NewProto validates parameters and enumerates candidate crash sets.
func NewProto(g *graph.Graph, f int, k, eps float64, pathBudget int) (*Proto, error) {
	if f < 0 || k <= 0 || eps <= 0 || math.IsNaN(k) || math.IsNaN(eps) {
		return nil, fmt.Errorf("crashapprox: invalid parameters f=%d k=%v eps=%v", f, k, eps)
	}
	if pathBudget <= 0 {
		pathBudget = bw.DefaultPathBudget
	}
	p := &Proto{
		G: g, F: f, K: k, Eps: eps,
		Rounds:     bw.RoundsFor(k, eps),
		PathBudget: pathBudget,
		paths:      graph.SharedPathTables(g, true, pathBudget),
	}
	graph.Subsets(g.Nodes(), f, func(s graph.Set) bool {
		p.faultSets = append(p.faultSets, s)
		return true
	})
	return p, nil
}

// roundState is what the node collects in one round. has marks the table
// entries a value arrived on (first message per path wins); missing counts,
// per thread, the entries of its fullness set still to come.
type roundState struct {
	started  bool
	advanced bool
	fired    bool // some thread's missing reached zero
	haveAny  bool
	min, max float64
	has      []bool
	missing  []int
}

// Machine is the protocol endpoint for one node; it implements sim.Handler.
type Machine struct {
	proto *Proto
	paths *graph.PathTable
	// crashSets are the candidate crash sets not containing the node, one
	// thread each, and full[i] is the size of thread i's fullness set: the
	// table entries — simple paths ending at the node — that avoid
	// crashSets[i].
	crashSets []graph.Set
	full      []int
	id        int
	input     float64

	cur int
	x   float64
	// rounds[r] is round r's state, nil until its first message; slot 0 is
	// unused.
	rounds []*roundState

	output  float64
	done    bool
	history []float64
}

var _ sim.Handler = (*Machine)(nil)

// NewMachine counts each thread's fullness set over node id's path table.
func NewMachine(p *Proto, id int, input float64) (*Machine, error) {
	paths, err := p.paths.Table(id)
	if err != nil {
		return nil, fmt.Errorf("crashapprox: node %d: %w", id, err)
	}
	m := &Machine{proto: p, paths: paths, id: id, input: input, rounds: make([]*roundState, p.Rounds+1)}
	for _, fv := range p.faultSets {
		if fv.Has(id) {
			continue
		}
		full := 0
		for e := range paths.Set {
			if !paths.Set[e].Intersects(fv) {
				full++
			}
		}
		m.crashSets, m.full = append(m.crashSets, fv), append(m.full, full)
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
	if m.proto.Rounds == 0 {
		m.output, m.done = m.x, true
		return
	}
	m.cur = 1
	m.startRound(out)
	m.tryAdvance(out)
}

// Deliver implements sim.Handler.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	p, ok := msg.Payload.(ValPayload)
	if !ok || p.Round < 1 || p.Round > m.proto.Rounds {
		return
	}
	e := m.paths.Door(msg.From, p.Entry)
	if e < 0 {
		return
	}
	rs := m.round(p.Round)
	if rs.has[e] {
		return
	}
	// Relays name the extended path by the node's own entry, and one boxed
	// payload serves them all.
	if ext := m.paths.Ext(e); len(ext) > 0 {
		var relay transport.Payload = ValPayload{Round: p.Round, Value: p.Value, Entry: e}
		for _, w := range ext {
			out.Send(int(w), relay)
		}
	}
	m.accept(rs, e, p.Value)
	m.tryAdvance(out)
}

// round returns round r's state, creating it on the round's first message;
// callers have checked 1 <= r <= Rounds.
func (m *Machine) round(r int) *roundState {
	rs := m.rounds[r]
	if rs == nil {
		rs = &roundState{has: make([]bool, len(m.paths.Head)), missing: slices.Clone(m.full)}
		m.rounds[r] = rs
	}
	return rs
}

// startRound floods x for the current round and stores it on the trivial
// path <v>: entry 0 of the table.
func (m *Machine) startRound(out *sim.Outbox) {
	rs := m.round(m.cur)
	rs.started = true
	out.Broadcast(ValPayload{Round: m.cur, Value: m.x, Entry: 0})
	m.accept(rs, 0, m.x)
}

// accept stores the value that arrived on entry e and counts it toward the
// fullness set of every thread whose crash set the path avoids.
func (m *Machine) accept(rs *roundState, e int32, value float64) {
	rs.has[e] = true
	if !rs.haveAny || value < rs.min {
		rs.min = value
	}
	if !rs.haveAny || value > rs.max {
		rs.max = value
	}
	rs.haveAny = true
	for i := range m.crashSets {
		if rs.missing[i] > 0 && !m.paths.Set[e].Intersects(m.crashSets[i]) {
			rs.missing[i]--
			rs.fired = rs.fired || rs.missing[i] == 0
		}
	}
}

func (m *Machine) tryAdvance(out *sim.Outbox) {
	for !m.done {
		rs := m.rounds[m.cur]
		if rs == nil || !rs.started || rs.advanced || !rs.fired {
			return
		}
		rs.advanced = true
		m.x = (rs.min + rs.max) / 2
		m.history = append(m.history, m.x)
		if m.cur == m.proto.Rounds {
			m.output, m.done = m.x, true
			return
		}
		m.cur++
		m.startRound(out)
	}
}
