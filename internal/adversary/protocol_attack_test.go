package adversary_test

import (
	"math"
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
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.5, Entry: 0})
	for _, w := range j.g.Out(j.id) {
		out.Send(w, bw.CompletePayload{
			Round:  1,
			Origin: j.id,
			Seq:    j.seq, // gap: seqs 1..seq-1 never sent
			Tag:    graph.EmptySet,
			Entries: []bw.ValEntry{
				{Value: 123, Entry: 0},
			},
			Entry: 0,
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
				// trivial path, its entry 0, maps into every out-neighbor's
				// table.
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
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.25, Entry: 0})
	entries := []bw.ValEntry{
		{Value: 42, Entry: 0},
	}
	for _, w := range f.g.Out(f.id) {
		out.Send(w, bw.CompletePayload{
			Round:   1,
			Origin:  f.id,
			Seq:     1,
			Tag:     graph.SetOf(f.victim),
			Entries: entries,
			Entry:   0,
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

// pathForger attacks the door. A sender names a path by its entry in its
// own path table, so a forged route that does not end at the sender — one
// ending at someone else, or naming a vertex outside the graph — cannot be
// named at all; what is left to forge is the name. Besides its
// honest-looking origination it sends every out-neighbor VAL and COMPLETE
// messages on ids no table holds — below zero, at the bottom of int32,
// past any table of a four-vertex graph, at the top of int32 — each
// carrying an extreme value. Each is dropped at the door and counted; none
// reaches M_v, a FIFO stream or a relay.
type pathForger struct {
	id int
	g  *graph.Graph
}

func (p *pathForger) ID() int { return p.id }

func (p *pathForger) Start(out *sim.Outbox) {
	out.Broadcast(bw.ValPayload{Round: 1, Value: 0.5, Entry: 0})
	for _, forged := range []int32{-1, math.MinInt32, 1 << 20, math.MaxInt32} {
		out.Broadcast(bw.ValPayload{Round: 1, Value: 1e9, Entry: forged})
		out.Broadcast(bw.CompletePayload{
			Round: 1, Origin: p.id, Seq: 1, Tag: graph.EmptySet,
			Entries: []bw.ValEntry{{Value: 1e9, Entry: 0}},
			Entry:   forged,
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
		// Four forged ids, each once as a VAL and once as a COMPLETE,
		// straight from the forger; nothing forged is relayed on.
		if got := machines[v].Snapshot().PathDropped; got != 8 {
			t.Errorf("node %d dropped %d forged paths, want 8", v, got)
		}
		return true
	})
}
