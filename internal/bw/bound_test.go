package bw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// stateFlooder is a Byzantine vertex that pushes every shape of VAL and
// COMPLETE a well-formed frame can take at its out-neighbors: every path it
// can name — any entry of its own table, simple, redundant, or no longer
// redundant once a receiver extends it — and ids that name none; fresh
// values, tags that are and are not fault sets, rounds
// inside and outside [1, Rounds], sequence numbers from 1 to 1<<20.
type stateFlooder struct {
	id     int
	proto  *Proto
	frames int
}

func (a *stateFlooder) ID() int { return a.id }

// entry returns an entry of vertex v's table — a simple one (a FIFO
// stream) two times in three — or, one time in four, an id below zero or
// past the table.
func (a *stateFlooder) entry(rng *rand.Rand, v int) int32 {
	t, err := a.proto.table(v)
	if err != nil {
		panic(err)
	}
	switch rng.Intn(8) {
	case 0:
		return -1 - rng.Int31n(4)
	case 1:
		return int32(len(t.Head)) + rng.Int31n(1<<20)
	case 2, 3, 4, 5:
		return t.Simples[rng.Intn(len(t.Simples))]
	}
	return rng.Int31n(int32(len(t.Head)))
}

func (a *stateFlooder) Start(out *sim.Outbox) {
	rng := rand.New(rand.NewSource(17))
	seqs := []int{1, 2, 3, 4, 5, 6, 7, 1 << 10, 1 << 20}
	own, err := a.proto.table(a.id)
	if err != nil {
		panic(err)
	}
	n := a.proto.G.N()
	for i := 0; i < a.frames; i++ {
		round := rng.Intn(a.proto.Rounds+4) - 1
		e := a.entry(rng, a.id)
		out.Broadcast(ValPayload{Round: round, Value: rng.Float64() * 1e6, Entry: e})

		var tag graph.Set
		for k := rng.Intn(3); k > 0; k-- {
			tag = tag.Add(rng.Intn(n + 1))
		}
		origin := rng.Intn(n)
		if e >= 0 && int(e) < len(own.Head) && rng.Intn(16) != 0 {
			origin = int(own.Head[e])
		}
		entries := make([]ValEntry, 1+rng.Intn(3))
		for j := range entries {
			entries[j] = ValEntry{Value: rng.Float64(), Entry: a.entry(rng, origin)}
		}
		out.Broadcast(CompletePayload{
			Round: round, Origin: origin, Seq: seqs[rng.Intn(len(seqs))],
			Tag: tag, Entries: entries, Entry: e,
		})
	}
}

func (a *stateFlooder) Deliver(transport.Message, *sim.Outbox) {}
func (a *stateFlooder) Output() (float64, bool)                { return 0, false }

// TestBWBoundedState: whatever one Byzantine in-neighbor pushes — here
// 2 × 4 000 frames at each of its three out-neighbors, which relay what
// passes validation to everyone else — an honest machine's per-round state
// stays inside bounds the plan gives: M_v and the FIFO streams are laid out
// over the node's path table (every redundant path, every simple path ending
// here) and a path outside it is dropped at the door and counted, every
// stream parks within its seqCap slots of the round's park slab, interned
// contents, each with its Verify bookkeeping and two thread bitsets, stay
// within streams × seqCap, and one round slot per round of the protocol. The honest vertices
// still decide inside the hull of their inputs.
func TestBWBoundedState(t *testing.T) {
	const byz, frames = 4, 4000
	g := graph.Fig1a()
	inputs := []float64{0.1, 3.9, 1.3, 2.7, 0.6}
	proto, err := NewProto(g, 1, 4, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	var honest []*Machine
	for i := range handlers {
		if i == byz {
			handlers[i] = &stateFlooder{id: i, proto: proto, frames: frames}
			continue
		}
		m, err := NewMachine(proto, i, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = m
		honest = append(honest, m)
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(5)}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}

	seqCap := proto.plan.seqCap
	if seqCap != 5 {
		t.Fatalf("seqCap = %d, want 5 (∅ and the four singletons avoiding a node)", seqCap)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range honest {
		lo, hi = math.Min(lo, m.input), math.Max(hi, m.input)
	}
	seqDropped, pathDropped := 0, 0
	for _, m := range honest {
		x, done := m.Output()
		if !done || x < lo || x > hi {
			t.Errorf("node %d: output %v (decided=%v) outside the honest hull [%v, %v]", m.id, x, done, lo, hi)
		}
		seqDropped += m.metrics.SeqDropped
		pathDropped += m.metrics.PathDropped
		if len(m.rounds) != proto.Rounds+1 {
			t.Errorf("node %d holds %d round slots, want Rounds+1 = %d", m.id, len(m.rounds), proto.Rounds+1)
		}
		full, streams := len(m.pre.paths.Head), len(m.pre.paths.Simples)
		if full != m.pre.threads[0].expectedCount {
			t.Errorf("node %d: the table holds %d paths, the ∅-thread's fullness set %d", m.id, full, m.pre.threads[0].expectedCount)
		}
		for round, rs := range m.rounds {
			if rs == nil {
				continue
			}
			if round == 0 {
				t.Errorf("node %d: round slot 0 in use", m.id)
			}
			accepted := 0
			for _, entries := range rs.byInit {
				accepted += len(entries)
			}
			if len(rs.vals) != full || len(rs.has) != full || accepted > full {
				t.Errorf("node %d round %d: %d entries accepted into %d slots, the table has %d", m.id, round, accepted, len(rs.vals), full)
			}
			if len(rs.streams) != streams {
				t.Errorf("node %d round %d: %d FIFO streams, %d simple paths end here", m.id, round, len(rs.streams), streams)
			}
			if rs.parked != nil && len(rs.parked) != streams*seqCap {
				t.Errorf("node %d round %d: a park slab of %d slots, want streams × seqCap = %d", m.id, round, len(rs.parked), streams*seqCap)
			}
			for s, st := range rs.streams {
				if st.high > seqCap || (st.high > 0 && rs.parked == nil) {
					t.Errorf("node %d round %d: stream %d parked up to sequence number %d (slab %v), cap %d", m.id, round, s, st.high, rs.parked != nil, seqCap)
				}
			}
			tw := m.pre.threadWords
			if len(rs.contents) > streams*seqCap || len(rs.contentIdx) != len(rs.contents) ||
				len(rs.checks) != len(rs.contents) || len(rs.threadBits) != 2*tw*len(rs.contents) {
				t.Errorf("node %d round %d: %d contents interned (%d indexed, %d checks, %d thread-bit words), bound %d",
					m.id, round, len(rs.contents), len(rs.contentIdx), len(rs.checks), len(rs.threadBits), streams*seqCap)
			}
		}
	}
	// Four of the nine sequence numbers the flooder draws from pass the cap;
	// they count on the frames whose round, path and tag are admissible. One
	// id in four names nothing on purpose, and many of the rest repeat a
	// vertex too often once extended to be redundant, or simple for a
	// COMPLETE.
	if seqDropped < frames/16 {
		t.Errorf("honest nodes counted %d out-of-range sequence numbers, want at least %d", seqDropped, frames/16)
	}
	if pathDropped < frames {
		t.Errorf("honest nodes counted %d inadmissible paths, want at least %d", pathDropped, frames)
	}
}
