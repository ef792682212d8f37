// Package aad implements the Abraham–Amit–Dolev (OPODIS 2004) optimal
// resilience asynchronous approximate agreement algorithm for complete
// networks with n > 3f — the algorithm whose generalization to directed
// networks is this paper's contribution (Section 2, "Technique Outline").
//
// Per asynchronous round, every node reliably broadcasts its state value;
// after accepting n−f values it reliably broadcasts its report (the set of
// accepted values); a reporter q becomes a *witness* for p once p has
// accepted both q's report and every value the report contains. When p has
// n−f witnesses, any two nonfaulty nodes share a nonfaulty witness (since
// 2(n−f) − n ≥ f+1), hence at least n−2f ≥ f+1 common values — the common
// information that drives the halving. The update trims the f lowest and f
// highest collected values and moves to the midpoint of the remainder.
package aad

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Num is a reliably broadcast state value. The concrete type lives in
// internal/rbc (the substrate shared with the exact tier); the alias keeps
// aad's public surface — and the wire codec's references — unchanged.
type Num = rbc.Num

// Entry is one accepted value of a report.
type Entry struct {
	Origin int
	Value  float64
}

// Report is a reliably broadcast report: the values its sender accepted,
// in strictly ascending origin order — the order the wire codec writes and
// the only one its decoder admits. Exported for the wire codec, like Num.
type Report []Entry

// Equal implements rbc.Content: same origins, values equal bit for bit.
func (r Report) Equal(c rbc.Content) bool {
	o, ok := c.(Report)
	if !ok || len(o) != len(r) {
		return false
	}
	for i, e := range r {
		if e.Origin != o[i].Origin || math.Float64bits(e.Value) != math.Float64bits(o[i].Value) {
			return false
		}
	}
	return true
}

// roundState tracks one asynchronous round, indexed by origin.
type roundState struct {
	values    []float64 // accepted state values; valid where accepted.Has
	accepted  graph.Set
	reports   []Report // accepted reports; nil where none
	reported  bool     // own report broadcast yet?
	witnesses graph.Set
	advanced  bool
}

// Machine is the AAD protocol endpoint for one nonfaulty node; it
// implements sim.Handler.
type Machine struct {
	n, f   int
	id     int
	rounds int
	input  float64

	bcast *rbc.Broadcaster
	cur   int
	x     float64
	state []*roundState // state[r-1] is round r; nil until first touched

	output  float64
	done    bool
	history []float64
}

var _ sim.Handler = (*Machine)(nil)

// NewMachine builds an AAD node for an n-clique with resilience f; rounds
// follows the same log2(K/eps) bound as BW.
func NewMachine(n, f, id, rounds int, input float64) (*Machine, error) {
	m := &Machine{
		n: n, f: f, id: id, rounds: rounds, input: input,
		state: make([]*roundState, rounds),
	}
	b, err := rbc.New(n, f, id, tagsPerRound*rounds, m.tagIndex)
	if err != nil {
		return nil, err
	}
	m.bcast = b
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
	m.beginRound(out)
}

// Deliver implements sim.Handler.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	ds := m.bcast.Handle(msg, out)
	if len(ds) == 0 {
		// Round state moves only on a delivery, and the previous call left
		// maybeAdvance at its fixed point.
		return
	}
	for _, d := range ds {
		m.onDelivery(d, out)
	}
	m.maybeAdvance(out)
}

func (m *Machine) round(r int) *roundState {
	rs := m.state[r-1]
	if rs == nil {
		rs = &roundState{values: make([]float64, m.n), reports: make([]Report, m.n)}
		m.state[r-1] = rs
	}
	return rs
}

func (m *Machine) beginRound(out *sim.Outbox) {
	for _, d := range m.bcast.Broadcast(slotTag(m.cur, kindValue), Num(m.x), out) {
		m.onDelivery(d, out)
	}
	m.maybeAdvance(out)
}

// onDelivery routes a reliable delivery into its round state. rbc delivers
// each (tag, origin) slot at most once and only for tags tagIndex admits,
// so the round is in range and the entry is not yet filled.
func (m *Machine) onDelivery(d rbc.Delivery, out *sim.Outbox) {
	ti := m.tagIndex(d.Tag)
	r := ti/tagsPerRound + 1
	rs := m.round(r)
	switch ti % tagsPerRound {
	case kindValue:
		if v, ok := d.Content.(Num); ok {
			rs.values[d.Origin] = float64(v)
			rs.accepted = rs.accepted.Add(d.Origin)
		}
	case kindReport:
		if rep, ok := d.Content.(Report); ok && m.wellFormed(rep) {
			rs.reports[d.Origin] = rep
		}
	}
	// Broadcast our own report once n−f values are in (for the round we
	// are actually in; later rounds report when we reach them).
	if r == m.cur {
		m.maybeReport(rs, out)
	}
}

// wellFormed reports whether rep could ever make its sender a witness: at
// least n−f entries, origins strictly ascending and below n. The wire
// decoder already enforces the order; a report built in-process by a
// faulty handler has passed through no decoder.
func (m *Machine) wellFormed(rep Report) bool {
	if len(rep) < m.n-m.f {
		return false
	}
	prev := -1
	for _, e := range rep {
		if e.Origin <= prev || e.Origin >= m.n {
			return false
		}
		prev = e.Origin
	}
	return true
}

// maybeReport reliably broadcasts this node's report for the current round
// once n−f values are accepted: a snapshot of them in origin order.
func (m *Machine) maybeReport(rs *roundState, out *sim.Outbox) {
	if rs.reported || rs.accepted.Count() < m.n-m.f {
		return
	}
	rs.reported = true
	snapshot := make(Report, 0, m.n)
	for o := 0; o < m.n; o++ {
		if rs.accepted.Has(o) {
			snapshot = append(snapshot, Entry{Origin: o, Value: rs.values[o]})
		}
	}
	for _, d := range m.bcast.Broadcast(slotTag(m.cur, kindReport), snapshot, out) {
		m.onDelivery(d, out)
	}
}

// refreshWitnesses recomputes the witness set: reporters whose entire
// report has been accepted by this node with matching values. Values match
// bit for bit — the identity rbc agreed on — so a NaN a faulty origin
// broadcast still matches itself.
func (m *Machine) refreshWitnesses(rs *roundState) {
	for origin, rep := range rs.reports {
		if rep == nil || rs.witnesses.Has(origin) {
			continue
		}
		ok := true
		for _, e := range rep {
			if !rs.accepted.Has(e.Origin) || math.Float64bits(rs.values[e.Origin]) != math.Float64bits(e.Value) {
				ok = false
				break
			}
		}
		if ok {
			rs.witnesses = rs.witnesses.Add(origin)
		}
	}
}

func (m *Machine) maybeAdvance(out *sim.Outbox) {
	for !m.done {
		rs := m.round(m.cur)
		if rs.advanced {
			return
		}
		// The report threshold can also be crossed by deliveries that
		// arrived before this round began.
		m.maybeReport(rs, out)
		if !rs.reported {
			return
		}
		m.refreshWitnesses(rs)
		if rs.witnesses.Count() < m.n-m.f {
			return
		}
		// Update: trim f lowest and f highest accepted values, midpoint.
		rs.advanced = true
		vals := make([]float64, 0, m.n)
		for o := 0; o < m.n; o++ {
			if rs.accepted.Has(o) {
				vals = append(vals, rs.values[o])
			}
		}
		sort.Float64s(vals)
		trimmed := vals[m.f : len(vals)-m.f]
		m.x = (trimmed[0] + trimmed[len(trimmed)-1]) / 2
		m.history = append(m.history, m.x)
		if m.cur == m.rounds {
			m.output, m.done = m.x, true
			return
		}
		m.cur++
		m.beginRound(out)
	}
}

// Each round owns two rbc tags, "r<round>/value" and "r<round>/report".
const (
	kindValue = iota
	kindReport
	tagsPerRound
)

func slotTag(round, kind int) string {
	if kind == kindValue {
		return "r" + strconv.Itoa(round) + "/value"
	}
	return "r" + strconv.Itoa(round) + "/report"
}

// tagIndex is the machine's rbc slot map: slotTag(round, kind) for a round in
// [1, rounds] has index (round−1)·tagsPerRound + kind, and every other
// string has none. Only the canonical spelling is admitted — plain decimal,
// no sign, no leading zero — because rbc keeps one slot per accepted
// string: "r01/value" beside "r1/value" would hand a faulty origin two
// deliveries for one round, and nodes that saw them in different orders
// would keep different values.
func (m *Machine) tagIndex(tag string) int {
	if len(tag) < 2 || tag[0] != 'r' || tag[1] == '0' {
		return -1
	}
	round, i := 0, 1
	for ; i < len(tag) && tag[i] >= '0' && tag[i] <= '9'; i++ {
		round = round*10 + int(tag[i]-'0')
		if round > m.rounds {
			return -1
		}
	}
	if i == 1 {
		return -1
	}
	switch tag[i:] {
	case "/value":
		return (round-1)*tagsPerRound + kindValue
	case "/report":
		return (round-1)*tagsPerRound + kindReport
	}
	return -1
}
