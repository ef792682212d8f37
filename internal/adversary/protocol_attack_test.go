package adversary_test

import (
	"testing"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// seqJammer attacks the FIFO layer: it floods COMPLETE messages with a
// gapped sequence number (seq with nothing before it) and a bogus but
// well-formed message set, trying to wedge receivers' FIFO streams, plus
// VAL messages carrying its own trivial path so the traffic looks alive.
// A sequence number past what an honest origin can reach in a round (one
// COMPLETE per thread) is dropped and counted on arrival — neither parked
// nor relayed; one inside that range is parked behind the gap for the rest
// of the run. Neither may block the actual-fault-set thread.
type seqJammer struct {
	id  int
	g   *graph.Graph
	seq int
}

func (j *seqJammer) ID() int { return j.id }

func (j *seqJammer) Start(out *sim.Outbox) {
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.5, Path: graph.Path{j.id}})
	for _, w := range j.g.Out(j.id) {
		out.Send(w, bw.CompletePayload{
			Round:  1,
			Origin: j.id,
			Seq:    j.seq, // gap: seqs 1..seq-1 never sent
			Tag:    graph.EmptySet,
			Entries: []bw.ValEntry{
				{Value: 123, PathKey: (graph.Path{j.id}).Key()},
			},
			Path: graph.Path{j.id},
		})
	}
}

func (j *seqJammer) Deliver(msg transport.Message, out *sim.Outbox) {}

func (j *seqJammer) Output() (float64, bool) { return 0, false }

func TestBWSeqJammer(t *testing.T) {
	g := graph.Clique(4)
	// On clique:4 with f=1 each node runs 4 threads (∅ and three
	// singletons), so 4 is the last sequence number an honest origin uses.
	for _, tc := range []struct {
		name    string
		seq     int
		dropped int // per honest receiver: the jammer's one direct send
	}{
		{"beyond-cap", 7, 1},
		{"gapped-in-range", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs, honest, machines := runMachinesWithFaults(t, g, 1, []float64{0, 1, 1.5, 2}, 2, 0.25,
				map[int]func(sim.Handler) sim.Handler{
					1: func(sim.Handler) sim.Handler { return &seqJammer{id: 1, g: g, seq: tc.seq} },
				}, 77)
			// Honest inputs 0, 1.5, 2.
			assertAgreementValidity(t, outs, 0.25, 0, 2)
			honest.ForEach(func(v int) bool {
				snap := machines[v].Snapshot()
				if snap.SeqDropped != tc.dropped {
					t.Errorf("node %d dropped %d out-of-range COMPLETEs, want %d", v, snap.SeqDropped, tc.dropped)
				}
				// The jammer lies about sequence numbers, not routes: its
				// trivial path is in every out-neighbor's table.
				if snap.PathDropped != 0 {
					t.Errorf("node %d dropped %d paths, the jammer sent none outside its table", v, snap.PathDropped)
				}
				return true
			})
		})
	}
}

// tagForger floods syntactically valid COMPLETE messages whose tag names an
// honest node as the suspect and whose message set is internally consistent
// but fabricated. Honest nodes may snapshot it in threads whose reach set
// admits the forger; its Completeness clauses must then never be satisfied
// by genuine traffic (the fabricated values arrive over no uncoverable path
// set), which stalls only threads that are allowed to stall.
type tagForger struct {
	id     int
	g      *graph.Graph
	victim int
}

func (f *tagForger) ID() int { return f.id }

func (f *tagForger) Start(out *sim.Outbox) {
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.25, Path: graph.Path{f.id}})
	entries := []bw.ValEntry{
		{Value: 42, PathKey: (graph.Path{f.id}).Key()},
	}
	for _, w := range f.g.Out(f.id) {
		out.Send(w, bw.CompletePayload{
			Round:   1,
			Origin:  f.id,
			Seq:     1,
			Tag:     graph.SetOf(f.victim),
			Entries: entries,
			Path:    graph.Path{f.id},
		})
	}
}

func (f *tagForger) Deliver(msg transport.Message, out *sim.Outbox) {}

func (f *tagForger) Output() (float64, bool) { return 0, false }

func TestBWTagForger(t *testing.T) {
	g := graph.Clique(4)
	outs, _ := runWithFaults(t, g, 1, []float64{0, 1, 1.5, 2}, 2, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			1: func(sim.Handler) sim.Handler { return &tagForger{id: 1, g: g, victim: 0} },
		}, 79)
	assertAgreementValidity(t, outs, 0.25, 0, 2)
}

// pathForger attacks the door: besides its honest-looking origination it
// sends every out-neighbor VAL and COMPLETE messages on routes no honest
// relay produces — a walk over a missing edge, one that passes through a
// vertex too often to be redundant, one that ends at someone else, one that
// names a vertex outside the graph, an empty one — each carrying an extreme
// value. None is in a receiver's path table, so each is dropped at the door
// and counted; none reaches M_v, a FIFO stream or a relay.
type pathForger struct {
	id int
	g  *graph.Graph
}

func (p *pathForger) ID() int { return p.id }

func (p *pathForger) Start(out *sim.Outbox) {
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.5, Path: graph.Path{p.id}})
	other := (p.id + 1) % p.g.N()
	for _, forged := range []graph.Path{
		{p.id, p.id},                     // no self-loop in G
		{p.id, other, p.id, other, p.id}, // a walk, but not redundant
		{p.id, other},                    // ends at someone else
		{p.g.N() + 3, p.id},              // a vertex outside the graph
		{-1, p.id},                       // a negative vertex
		{},                               // no path at all
	} {
		out.Broadcast(bw.ValPayload{Round: 1, Value: 1e9, Path: forged})
		origin := p.id
		if len(forged) > 0 {
			origin = forged[0]
		}
		out.Broadcast(bw.CompletePayload{
			Round: 1, Origin: origin, Seq: 1, Tag: graph.EmptySet,
			Entries: []bw.ValEntry{{Value: 1e9, PathKey: (graph.Path{p.id}).Key()}},
			Path:    forged,
		})
	}
}

func (p *pathForger) Deliver(msg transport.Message, out *sim.Outbox) {}

func (p *pathForger) Output() (float64, bool) { return 0, false }

func TestBWPathForger(t *testing.T) {
	g := graph.Clique(4)
	outs, honest, machines := runMachinesWithFaults(t, g, 1, []float64{0, 1, 1.5, 2}, 2, 0.25,
		map[int]func(sim.Handler) sim.Handler{
			1: func(sim.Handler) sim.Handler { return &pathForger{id: 1, g: g} },
		}, 83)
	assertAgreementValidity(t, outs, 0.25, 0, 2)
	honest.ForEach(func(v int) bool {
		// Six forged routes, each once as a VAL and once as a COMPLETE,
		// straight from the forger; nothing forged is relayed on.
		if got := machines[v].Snapshot().PathDropped; got != 12 {
			t.Errorf("node %d dropped %d forged paths, want 12", v, got)
		}
		return true
	})
}
