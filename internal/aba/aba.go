// Package aba implements MMR-style asynchronous binary Byzantine agreement
// (Mostéfaoui–Moumen–Raynal) for complete networks with n > 3f: per round,
// a BV-broadcast with the binding-value rule admits only values proposed by
// at least one honest node, an AUX exchange collects n−f opinions over the
// admitted set, and a common coin breaks symmetry. The coin here is the
// seeded deterministic one every node can compute locally from the run
// seed (internal/seedmix), which keeps simulator traces byte-identical
// across runs and worker counts and needs no extra message kinds.
//
// Termination is made quiescent in two complementary ways. First,
// coin-bounded participation: a node that decides v at round r keeps
// participating through the first later round whose coin is v — by then
// every honest est equals v (the binding rule bars the adversary from
// re-injecting 1−v), so all laggards decide there — and then stops.
// Second, a Bracha-style DONE gadget: deciding broadcasts DONE(v); f+1
// DONE(v) lets an undecided node decide and relay immediately, and 2f+1
// DONE(v) halts the instance outright, which is the fast path under fair
// schedules.
package aba

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/seedmix"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Phase is the protocol step of an ABA message.
type Phase int

// Message phases. BVAL and AUX carry a round; DONE is round-less (Round 0).
const (
	PhaseBval Phase = iota + 1
	PhaseAux
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseBval:
		return "BVAL"
	case PhaseAux:
		return "AUX"
	case PhaseDone:
		return "DONE"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Msg is the wire payload of one ABA instance. Inst namespaces concurrent
// instances multiplexed over one link (ACS runs n of them); the standalone
// protocol uses instance 0.
type Msg struct {
	Inst  int
	Round int
	Phase Phase
	Value int // 0 or 1
}

// Kind implements transport.Payload. The node runtime calls it once per
// sent frame, so the valid phases return constants.
func (m Msg) Kind() string {
	switch m.Phase {
	case PhaseBval:
		return "ABA-BVAL"
	case PhaseAux:
		return "ABA-AUX"
	case PhaseDone:
		return "ABA-DONE"
	default:
		return "ABA-" + m.Phase.String()
	}
}

// coinSalt decorrelates the common-coin stream from every other consumer
// of the run seed (adversary node seeds use seedmix.Mix(seed, id), link
// faults use salt 0x11f4).
const coinSalt = 0x0aba

// maxRound caps the per-round state a hostile peer can make us allocate;
// honest executions decide in a handful of rounds (each round's coin
// matches the locked value with probability 1/2).
const maxRound = 1 << 20

// Coin is the seeded deterministic common coin: every node computes the
// same bit for (instance, round) from the shared run seed. This is the
// coin determinism contract — no coin messages exist, so schedules and
// worker counts cannot perturb it.
func Coin(seed int64, inst, round int) int {
	return int(seedmix.Mix(seed, coinSalt, int64(inst), int64(round)) & 1)
}

// roundState accumulates one round's BV-broadcast and AUX exchange.
type roundState struct {
	bvalSent  [2]bool
	bvalFrom  [2]graph.Set // value -> senders
	bvalN     [2]int       // value -> bvalFrom[value].Count()
	bin       [2]bool      // binding values: admitted at 2f+1 senders
	auxSent   bool
	auxFrom   graph.Set // all AUX senders this round (first value wins)
	auxN      [2]int    // value -> AUX senders of that value
	completed bool
}

// Core is one ABA instance's state machine. It is passive until Propose:
// it relays BVALs, sends AUX and advances rounds on behalf of others (ACS
// needs that for instances whose RBC hasn't delivered locally yet), but
// broadcasts no estimate of its own until either Propose binds one or the
// first round completes and binds one from the admitted values. Like the
// rbc.Broadcaster it is driven by a single-goroutine event loop and needs
// no locking.
type Core struct {
	n, f, id, inst int
	seed           int64

	rounds   map[int]*roundState
	round    int // current round, always >= 1
	est      int
	estBound bool // Propose happened or a round completed

	decided   bool
	decision  int
	haltRound int // participate through this round once decided, then stop
	doneSent  bool
	doneFrom  [2]graph.Set
	doneN     [2]int // value -> doneFrom[value].Count()
	halted    bool

	outQ []Msg // broadcasts staged during a transition, drained re-entrantly

	// OnDecide, when set, fires exactly once at the moment of decision with
	// the outbox live at that point (ACS uses it to trigger its 0-proposals).
	OnDecide func(inst, value int, out *sim.Outbox)
}

// NewCore returns the state machine for one instance; n > 3f is the
// caller's contract (checked by the protocol builders).
func NewCore(n, f, id, inst int, seed int64) *Core {
	return &Core{
		n: n, f: f, id: id, inst: inst, seed: seed,
		rounds: make(map[int]*roundState),
		round:  1,
	}
}

func (c *Core) state(r int) *roundState {
	rs, ok := c.rounds[r]
	if !ok {
		rs = &roundState{}
		c.rounds[r] = rs
	}
	return rs
}

// Decided reports the decision once reached.
func (c *Core) Decided() (int, bool) { return c.decision, c.decided }

// Propose binds the node's own estimate and starts round 1. It is a no-op
// if an estimate is already bound (a passive instance that completed round
// 1 on others' traffic binds the derived value instead — by then the
// proposal could no longer influence the admitted set).
func (c *Core) Propose(v int, out *sim.Outbox) {
	if c.halted || c.estBound || v < 0 || v > 1 {
		return
	}
	c.est, c.estBound = v, true
	rs := c.state(c.round)
	if !rs.bvalSent[v] {
		rs.bvalSent[v] = true
		c.stage(Msg{Inst: c.inst, Round: c.round, Phase: PhaseBval, Value: v})
	}
	c.drain(out)
}

// Handle processes one incoming ABA message for this instance.
func (c *Core) Handle(from int, m Msg, out *sim.Outbox) {
	c.ingest(from, m, out)
	c.drain(out)
}

// stage queues a broadcast; drain sends it and self-processes it, exactly
// like a neighbor's copy, so thresholds count the local node uniformly.
func (c *Core) stage(m Msg) { c.outQ = append(c.outQ, m) }

func (c *Core) drain(out *sim.Outbox) {
	for len(c.outQ) > 0 {
		m := c.outQ[0]
		c.outQ = c.outQ[1:]
		out.Broadcast(m)
		c.ingest(c.id, m, out)
	}
}

func (c *Core) ingest(from int, m Msg, out *sim.Outbox) {
	if c.halted || m.Value < 0 || m.Value > 1 {
		return
	}
	switch m.Phase {
	case PhaseBval:
		if m.Round < 1 || m.Round > maxRound {
			return
		}
		rs := c.state(m.Round)
		if !rs.bvalFrom[m.Value].Insert(from) {
			return
		}
		rs.bvalN[m.Value]++
		n := rs.bvalN[m.Value]
		// Relay at f+1 distinct senders: at least one is honest, so the
		// value traces back to an honest proposal (the binding rule's
		// grounding induction). Relays run for any round — laggards' 2f+1
		// quorums are fed by them.
		if n >= c.f+1 && !rs.bvalSent[m.Value] {
			rs.bvalSent[m.Value] = true
			c.stage(Msg{Inst: c.inst, Round: m.Round, Phase: PhaseBval, Value: m.Value})
		}
		if n >= 2*c.f+1 && !rs.bin[m.Value] {
			rs.bin[m.Value] = true
			// bin_values became (or grew while) nonempty: announce one
			// admitted value, and re-check completion — buffered AUXes may
			// only now fall inside the admitted set.
			if !rs.auxSent {
				rs.auxSent = true
				c.stage(Msg{Inst: c.inst, Round: m.Round, Phase: PhaseAux, Value: m.Value})
			}
			c.tryComplete(m.Round, out)
		}
	case PhaseAux:
		if m.Round < 1 || m.Round > maxRound {
			return
		}
		rs := c.state(m.Round)
		if !rs.auxFrom.Insert(from) {
			return
		}
		rs.auxN[m.Value]++
		c.tryComplete(m.Round, out)
	case PhaseDone:
		if m.Round != 0 {
			return
		}
		if !c.doneFrom[m.Value].Insert(from) {
			return
		}
		c.doneN[m.Value]++
		n := c.doneN[m.Value]
		if n >= c.f+1 && !c.decided {
			// f+1 DONE(v) contains an honest decider; adopt and relay.
			c.decide(m.Value, out)
		}
		if n >= 2*c.f+1 {
			c.halted = true
		}
	}
}

// tryComplete checks the current round's exit condition: n−f AUX senders
// whose values lie in bin_values. The subset is chosen to favor deciding:
// if the coin value alone has an n−f quorum the values-set is the
// singleton {coin} and we decide; a singleton of the other value adopts
// it; a mixed set adopts the coin.
func (c *Core) tryComplete(r int, out *sim.Outbox) {
	if r != c.round {
		return
	}
	rs := c.state(r)
	if rs.completed {
		return
	}
	var cnt [2]int
	for v := 0; v <= 1; v++ {
		if rs.bin[v] {
			cnt[v] = rs.auxN[v]
		}
	}
	coin := Coin(c.seed, c.inst, r)
	next := -1
	switch {
	case cnt[coin] >= c.n-c.f:
		if !c.decided {
			c.decide(coin, out)
		}
		next = coin
	case cnt[1-coin] >= c.n-c.f:
		next = 1 - coin
	case cnt[0]+cnt[1] >= c.n-c.f:
		next = coin
	default:
		return
	}
	rs.completed = true
	c.est, c.estBound = next, true
	c.enterRound(r+1, out)
}

func (c *Core) decide(v int, out *sim.Outbox) {
	c.decided, c.decision = true, v
	c.est, c.estBound = v, true
	// Participate through the next round whose coin equals v: every honest
	// node still running holds est=v after this round, so that round's
	// values-set is the singleton {v} and all of them decide there.
	c.haltRound = c.round + 1
	for Coin(c.seed, c.inst, c.haltRound) != v {
		c.haltRound++
	}
	if !c.doneSent {
		c.doneSent = true
		c.stage(Msg{Inst: c.inst, Round: 0, Phase: PhaseDone, Value: v})
	}
	if c.OnDecide != nil {
		c.OnDecide(c.inst, v, out)
	}
}

func (c *Core) enterRound(r int, out *sim.Outbox) {
	c.round = r
	if c.decided && r > c.haltRound {
		c.halted = true
		return
	}
	rs := c.state(r)
	if !rs.bvalSent[c.est] {
		rs.bvalSent[c.est] = true
		c.stage(Msg{Inst: c.inst, Round: r, Phase: PhaseBval, Value: c.est})
	}
	// Traffic for this round may have arrived while we were behind: the
	// AUX announcement and even the exit condition can be ready already.
	if !rs.auxSent {
		for v := 0; v <= 1; v++ {
			if rs.bin[v] {
				rs.auxSent = true
				c.stage(Msg{Inst: c.inst, Round: r, Phase: PhaseAux, Value: v})
				break
			}
		}
	}
	c.tryComplete(r, out)
}

// Machine adapts a single Core (instance 0) to the sim.Handler contract,
// making ABA an ordinary registered protocol: scalar inputs map to the
// proposed bit (nonzero -> 1) and the decision is the output 0/1.
type Machine struct {
	id    int
	input int
	core  *Core
}

// NewMachine builds the standalone ABA handler for node id proposing the
// given bit.
func NewMachine(n, f, id int, seed int64, input int) *Machine {
	return &Machine{id: id, input: input, core: NewCore(n, f, id, 0, seed)}
}

// ID implements sim.Handler.
func (m *Machine) ID() int { return m.id }

// Start implements sim.Handler.
func (m *Machine) Start(out *sim.Outbox) { m.core.Propose(m.input, out) }

// Deliver implements sim.Handler.
func (m *Machine) Deliver(msg transport.Message, out *sim.Outbox) {
	am, ok := msg.Payload.(Msg)
	if !ok || am.Inst != 0 {
		return
	}
	m.core.Handle(msg.From, am, out)
}

// Output implements sim.Handler.
func (m *Machine) Output() (float64, bool) {
	v, ok := m.core.Decided()
	return float64(v), ok
}
