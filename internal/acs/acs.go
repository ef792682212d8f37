// Package acs implements BKR-style agreement on a common subset
// (Ben-Or–Kelmer–Rabin, the HoneyBadgerBFT building block) for complete
// networks with n > 3f: every node reliably broadcasts its input value, and
// n asynchronous binary agreement instances — one per origin — agree on
// which broadcasts made it into the common subset. RBC-delivering origin
// j's value proposes 1 to ABA_j; once n−f instances have decided 1, the
// node proposes 0 to every instance it hasn't voted in; when all n
// instances have decided, the subset is {j : ABA_j = 1} and RBC totality
// guarantees the missing values arrive. Agreement on every ABA plus
// agreement on every RBC slot makes the decision vector identical at all
// honest nodes, and at least n−f instances decide 1 because the f
// remaining proposals cannot veto the n−f that honest nodes backed.
//
// The two sub-protocols multiplex over one link without colliding: RBC
// traffic is namespaced by its (origin, tag) slot — the value broadcast
// uses the single tag "acs/v" with the proposer as origin — and ABA
// traffic carries its instance id in every message.
package acs

import (
	"repro/internal/aba"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ValueTag is the RBC slot tag of the input-value broadcasts; the origin
// id distinguishes the n slots.
const ValueTag = "acs/v"

// Machine is the per-node ACS handler: one reliable-broadcast engine plus
// n ABA cores behind a shared event loop. It implements sim.Handler with a
// scalar output (the mean of the agreed subset's values, computed in
// origin order so every honest node reports the identical float) and
// exposes the full decision vector through Vector.
type Machine struct {
	n, f, id int
	input    float64

	bcast    *rbc.Broadcaster
	cores    []*aba.Core
	values   []*float64 // RBC-delivered input per origin
	proposed []bool     // whether our vote for ABA_j is bound
	decision []int      // ABA_j's decision, valid when decidedAt[j]
	decided  []bool
	nDecided int
	ones     int

	done bool
	mean float64
}

// New builds the ACS handler for node id with the given input; n > 3f is
// required by the RBC substrate and enforced there.
func New(n, f, id int, seed int64, input float64) (*Machine, error) {
	b, err := rbc.New(n, f, id, 1, valueTagIndex)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		n: n, f: f, id: id, input: input,
		bcast:    b,
		cores:    make([]*aba.Core, n),
		values:   make([]*float64, n),
		proposed: make([]bool, n),
		decision: make([]int, n),
		decided:  make([]bool, n),
	}
	b.OnDeliver(m.onRBCDeliver)
	for j := 0; j < n; j++ {
		c := aba.NewCore(n, f, id, j, seed)
		c.OnDecide = m.onABADecide
		m.cores[j] = c
	}
	return m, nil
}

// valueTagIndex is the machine's rbc slot map: ValueTag, spelled exactly,
// is the only tag, so the n origins are the n slots.
func valueTagIndex(tag string) int {
	if tag == ValueTag {
		return 0
	}
	return -1
}

// ID implements sim.Handler.
func (m *Machine) ID() int { return m.id }

// Start implements sim.Handler: reliably broadcast our own input.
func (m *Machine) Start(out *sim.Outbox) {
	m.bcast.Broadcast(ValueTag, rbc.Num(m.input), out)
}

// Deliver implements sim.Handler, routing by payload kind: RBC slots carry
// their own namespace, ABA messages their instance id.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	switch p := msg.Payload.(type) {
	case rbc.Msg:
		m.bcast.Handle(msg, out)
	case aba.Msg:
		if p.Inst < 0 || p.Inst >= m.n {
			return
		}
		m.cores[p.Inst].Handle(msg.From, p, out)
	}
}

func (m *Machine) onRBCDeliver(d rbc.Delivery, out *sim.Outbox) {
	// rbc delivers each slot once and only under ValueTag from an origin
	// in range (valueTagIndex), so the content type is the only check left.
	num, ok := d.Content.(rbc.Num)
	if !ok {
		return
	}
	v := float64(num)
	m.values[d.Origin] = &v
	// Seeing origin j's broadcast is our vote that it belongs in the
	// subset — unless the 0-proposal phase already bound our vote.
	if !m.proposed[d.Origin] {
		m.proposed[d.Origin] = true
		m.cores[d.Origin].Propose(1, out)
	}
	// A 1-deciding instance may have been waiting for exactly this value.
	m.tryFinish()
}

func (m *Machine) onABADecide(inst, v int, out *sim.Outbox) {
	if m.decided[inst] {
		return
	}
	m.decided[inst] = true
	m.decision[inst] = v
	m.nDecided++
	if v == 1 {
		m.ones++
		if m.ones >= m.n-m.f {
			// Enough of the subset is settled; stop waiting for the rest
			// and vote the undelivered broadcasts out (in index order, so
			// the message schedule is deterministic).
			for j := 0; j < m.n; j++ {
				if !m.proposed[j] {
					m.proposed[j] = true
					m.cores[j].Propose(0, out)
				}
			}
		}
	}
	m.tryFinish()
}

// tryFinish decides once every ABA instance has decided and every
// subset member's value has RBC-delivered (totality guarantees it will).
func (m *Machine) tryFinish() {
	if m.done || m.nDecided < m.n {
		return
	}
	sum, size := 0.0, 0
	for j := 0; j < m.n; j++ {
		if m.decision[j] != 1 {
			continue
		}
		if m.values[j] == nil {
			return
		}
		sum += *m.values[j]
		size++
	}
	// Summed in ascending origin order above: every honest node adds the
	// identical floats in the identical order, so the means are bitwise
	// equal, not just mathematically equal.
	m.done = true
	m.mean = sum / float64(size)
}

// Output implements sim.Handler: the mean of the agreed subset's values.
func (m *Machine) Output() (float64, bool) { return m.mean, m.done }

// Vector returns the decision vector — origin to agreed value for every
// subset member — or nil before the subset is decided. The repro layer
// surfaces it as Result.Vectors.
func (m *Machine) Vector() map[int]float64 {
	if !m.done {
		return nil
	}
	vec := make(map[int]float64)
	for j := 0; j < m.n; j++ {
		if m.decision[j] == 1 && m.values[j] != nil {
			vec[j] = *m.values[j]
		}
	}
	return vec
}
