package bw_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// checkedMachine checks a machine's Verify state against the subscriber
// oracle after its Start and after every delivery.
type checkedMachine struct {
	*bw.Machine
	check *bw.VerifyCheck
	t     *testing.T
	name  string
}

func (c *checkedMachine) Start(out *sim.Outbox) {
	c.Machine.Start(out)
	c.verify()
}

func (c *checkedMachine) Deliver(msg transport.Message, out *sim.Outbox) {
	c.Machine.Deliver(msg, out)
	c.verify()
}

func (c *checkedMachine) verify() {
	if c.t.Failed() {
		return
	}
	if err := c.check.Check(); err != nil {
		c.t.Errorf("%s vertex %d: %v", c.name, c.ID(), err)
	}
}

// ownCompletes applies edit to the COMPLETEs a vertex originates and passes
// everything else on.
func ownCompletes(edit func(*bw.CompletePayload)) adversary.Mutator {
	return func(_ *rand.Rand, m transport.Message) []transport.Payload {
		c, ok := m.Payload.(bw.CompletePayload)
		if !ok || c.Entry != 0 {
			return []transport.Payload{m.Payload}
		}
		edit(&c)
		return []transport.Payload{c}
	}
}

// Three Byzantine behaviors the registry lacks, each running vertex b's
// honest machine and forging only the COMPLETEs b originates. Its VALs are
// honest, so threads that do not suspect b stay consistent, fire, and
// snapshot what b floods. forgedown shifts every value by one: a member
// whose clauses stay open. truncatedown keeps the first half of the
// entries: an impossible member, a value missing for a trailing origin.
// earlyflood also floods, at Start and under sequence number 1 (its honest
// floods follow one number later), a consistent round-1 COMPLETE tagged ∅
// carrying every vertex's true input over one path to b, which b cannot
// have received yet; with vertex q's out-edges held until the rest of the
// network quiesces, the ∅ clauses on q stay open in the {q} snapshots that
// hold the flood until q's values arrive, and then close.
const earlyQ = 2

func forger(kind string, g *graph.Graph, proto *bw.Proto, b int, inputs []float64, m *bw.Machine) (sim.Handler, *transport.HoldRule, bool) {
	mutant := func(edit func(*bw.CompletePayload)) *adversary.Mutant {
		return &adversary.Mutant{Inner: m, Mutators: []adversary.Mutator{ownCompletes(edit)}, Rng: rand.New(rand.NewSource(7))}
	}
	switch kind {
	case "forgedown":
		return mutant(func(c *bw.CompletePayload) {
			c.Entries = slices.Clone(c.Entries)
			for i := range c.Entries {
				c.Entries[i].Value++
			}
		}), nil, true
	case "truncatedown":
		return mutant(func(c *bw.CompletePayload) { c.Entries = c.Entries[:len(c.Entries)/2] }), nil, true
	case "earlyflood":
		paths, err := g.SimplePathsTo(b, graph.EmptySet, 0)
		if err != nil {
			panic(err)
		}
		early := bw.CompletePayload{Round: 1, Origin: b, Seq: 1}
		for c := range g.N() {
			if i := slices.IndexFunc(paths, func(p graph.Path) bool { return p[0] == c }); i >= 0 {
				early.Entries = append(early.Entries, bw.ValEntry{Value: inputs[c], Entry: bw.EntryOf(proto, paths[i])})
			}
		}
		held := make(map[[2]int]bool)
		for _, w := range g.Out(earlyQ) {
			held[[2]int{earlyQ, w}] = true
		}
		return &earlyFlooder{mutant(func(c *bw.CompletePayload) { c.Seq++ }), early}, transport.HoldEdges(held), true
	}
	return nil, nil, false
}

type earlyFlooder struct {
	*adversary.Mutant
	early bw.CompletePayload
}

func (a *earlyFlooder) Start(out *sim.Outbox) {
	out.Broadcast(a.early)
	a.Mutant.Start(out)
}

// TestVerifyMatchesSubscriberOracle holds Verify's per-content bookkeeping
// to the per-thread subscriber logic it replaced (reference_test.go): on
// fig1a, clique:4 and fig1b-analog, honest and with vertex 1 running each
// registered adversary or one of the forgers above, every honest machine's
// threads read the same verified() and the same count of pending members
// as the oracle's after every delivery. Honest floods subscribe to no
// clause — every clause is satisfied by the time a snapshot resolves it —
// so the cases that exercise the counting must each occur somewhere: a
// member with a clause still open at its snapshot, such a member verified
// later, an impossible member, and a membership frozen at a later delivery
// than another snapshot of the round. On the same runs, every
// Maximal-Consistency fire's own-flood summary, built from the thread's
// origin table, equals newFloodInfo's summary of its payload.
func TestVerifyMatchesSubscriberOracle(t *testing.T) {
	const byz = 1
	cells := []struct {
		g      *graph.Graph
		inputs []float64
		k, eps float64
	}{
		{graph.Fig1a(), []float64{0.1, 3.9, 1.3, 2.7, 0.6}, 4, 0.5},
		{graph.Clique(4), []float64{0, 3, 1, 2}, 3, 0.5},
		{graph.Fig1bAnalog(), []float64{0, 0.5, 1, 0.25, 0.75, 1, 0, 0.5}, 1, 0.6},
	}
	kinds := append([]string{"honest"}, adversary.Adversaries()...)
	kinds = append(kinds, "forgedown", "truncatedown", "earlyflood")
	var total bw.VerifyCounts
	for _, cell := range cells {
		// fig1b-analog's cells make 3 M deliveries. The runs are
		// single-goroutine, so the race detector has nothing to find in
		// them; under it, and with -short, the two small graphs stand in.
		if (testing.Short() || wire.RaceEnabled) && cell.g.N() > 5 {
			continue
		}
		for _, kind := range kinds {
			name := cell.g.String() + " " + kind
			proto, err := bw.NewProto(cell.g, 1, cell.k, cell.eps, 0)
			if err != nil {
				t.Fatal(err)
			}
			handlers := make([]sim.Handler, cell.g.N())
			var hold *transport.HoldRule
			var checks []*bw.VerifyCheck
			for i := range handlers {
				m, err := bw.NewMachine(proto, i, cell.inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				if i == byz && kind != "honest" {
					var ok bool
					if handlers[i], hold, ok = forger(kind, cell.g, proto, i, cell.inputs, m); ok {
						continue
					}
					handlers[i], err = adversary.BuildHandler(i, adversary.Spec{Kind: kind}, m, adversary.NodeSeed(7, i))
					if err != nil {
						t.Fatal(err)
					}
					continue
				}
				c := bw.NewVerifyCheck(m)
				checks = append(checks, c)
				handlers[i] = &checkedMachine{Machine: m, check: c, t: t, name: name}
			}
			r, err := sim.New(sim.Config{Graph: cell.g, Policy: transport.NewRandomPolicy(7), Hold: hold}, handlers)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			if _, all := r.Outputs(cell.g.Nodes().Remove(byz)); !all {
				t.Errorf("%s: an honest vertex did not decide", name)
			}
			var run bw.VerifyCounts
			for _, c := range checks {
				n := c.Counts()
				run.OpenAtSnapshot += n.OpenAtSnapshot
				run.Closed += n.Closed
				run.Impossible += n.Impossible
				run.LateJoins += n.LateJoins
				run.OwnFloods += n.OwnFloods
			}
			t.Logf("%s: %d deliveries, %+v", name, r.Steps(), run)
			if kind == "honest" && run.OpenAtSnapshot+run.Impossible != 0 {
				t.Errorf("%s: an honest run snapshotted %d members with an open clause and %d impossible ones", name, run.OpenAtSnapshot, run.Impossible)
			}
			if run.OwnFloods == 0 {
				t.Errorf("%s: no own flood was compared", name)
			}
			total.OpenAtSnapshot += run.OpenAtSnapshot
			total.Closed += run.Closed
			total.Impossible += run.Impossible
			total.LateJoins += run.LateJoins
		}
	}
	if total.OpenAtSnapshot == 0 || total.Closed == 0 || total.Impossible == 0 || total.LateJoins == 0 {
		t.Errorf("the runs exercised %d members open at their snapshot, %d verified later, %d impossible ones and %d late memberships; each must occur",
			total.OpenAtSnapshot, total.Closed, total.Impossible, total.LateJoins)
	}
}
