package cluster_test

import (
	"context"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/sim"
	"repro/internal/transport"
)

// bwFig1aSpec builds the paper's Algorithm BW on Figure 1(a) (f = 1, K = 4,
// ε = 0.1), vertex byz tampering when tamper is set and running the honest
// machine otherwise; either way byz is the run's one faulty vertex, left
// out of the honest set.
func bwFig1aSpec(t *testing.T, byz int, tamper bool) cluster.Spec {
	t.Helper()
	g := graph.Fig1a()
	inputs := []float64{0, 4, 1, 3, 2}
	proto, err := bw.NewProto(g, 1, 4, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	honest := graph.EmptySet
	for i := range handlers {
		m, err := bw.NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
		if i != byz {
			honest = honest.Add(i)
			continue
		}
		if tamper {
			if handlers[i], err = adversary.BuildHandler(i, adversary.Spec{Kind: "tamper"}, m, adversary.NodeSeed(5, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cluster.Spec{Graph: g, Handlers: handlers, Honest: honest}
}

// TestBWFig1aBundlesFrames pins what the node loop's flush rule buys on
// the workload it was made for: Algorithm BW relays every value along
// every redundant path, so a delivery burst sends several messages per
// destination, and a run writes at most a third as many frames as it
// sends messages — on both runtimes.
func TestBWFig1aBundlesFrames(t *testing.T) {
	for _, name := range cluster.Runtimes() {
		t.Run(name, func(t *testing.T) {
			run, err := cluster.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := run(context.Background(), bwFig1aSpec(t, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			checkAgreement(t, out, 4, 0.1)
			t.Logf("%d messages in %d frames (%.1f per frame)", out.Sent, out.Frames, float64(out.Sent)/float64(out.Frames))
			if out.Frames <= 0 || 3*out.Frames > out.Sent {
				t.Errorf("%d frames for %d messages, want at most a third", out.Frames, out.Sent)
			}
		})
	}
}

// sendCounter wraps a handler and counts its sends per destination — the
// messages a link-fault rule on one of its out-edges sees. Each node loop
// owns its handler, so the counts need no lock and are read after the run.
type sendCounter struct {
	sim.Handler
	sent map[int]int
}

func (c *sendCounter) Start(out *sim.Outbox) {
	c.Handler.Start(out)
	c.count(out)
}

func (c *sendCounter) Deliver(m transport.Message, out *sim.Outbox) {
	c.Handler.Deliver(m, out)
	c.count(out)
}

func (c *sendCounter) count(out *sim.Outbox) {
	for _, m := range out.Messages() {
		c.sent[m.To]++
	}
}

// TestLinkFaultsPerMessage runs BW on Figure 1(a) over loopback under a
// drop, a duplicate and a delay rule, each on one edge and firing on every
// message, while the node loops bundle: each rule's count must equal the
// messages sent over its edge, the simulator's per-message semantics.
// Vertex 1 is the run's faulty vertex and the drop rule sits on its edge
// into the hub, so the dropped traffic is what a Byzantine vertex may
// withhold.
func TestLinkFaultsPerMessage(t *testing.T) {
	spec := bwFig1aSpec(t, 1, false)
	dropEdge, dupEdge, delayEdge := [2]int{1, 0}, [2]int{2, 3}, [2]int{4, 0}
	set, err := linkfault.New(spec.Graph, []linkfault.Rule{
		{Kind: linkfault.KindDrop, Edges: [][2]int{dropEdge}},
		{Kind: linkfault.KindDuplicate, Edges: [][2]int{dupEdge}},
		{Kind: linkfault.KindDelay, Edges: [][2]int{delayEdge}, Params: map[string]float64{"amount": 2}},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec.LinkFaults = set
	counters := make([]*sendCounter, len(spec.Handlers))
	for i, h := range spec.Handlers {
		counters[i] = &sendCounter{Handler: h, sent: make(map[int]int)}
		spec.Handlers[i] = counters[i]
	}
	out, err := cluster.RunLoopback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, out, 4, 0.1)
	if out.Frames <= 0 || 2*out.Frames > out.Sent {
		t.Errorf("%d frames for %d messages: the run did not bundle", out.Frames, out.Sent)
	}
	seen := func(e [2]int) int { return counters[e[0]].sent[e[1]] }
	dropped, duplicated, delayed := set.Counts()
	if dropped != seen(dropEdge) || duplicated != seen(dupEdge) || delayed != seen(delayEdge) {
		t.Errorf("dropped/duplicated/delayed = %d/%d/%d, messages on the edges = %d/%d/%d",
			dropped, duplicated, delayed, seen(dropEdge), seen(dupEdge), seen(delayEdge))
	}
	if dropped == 0 || duplicated == 0 || delayed == 0 {
		t.Errorf("a rule never fired: %d/%d/%d", dropped, duplicated, delayed)
	}
}
