package bw

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// tableGraphs are the topologies the thread contexts are held to the
// definitions on: the paper's figures, the dense and sparse extremes, and
// seeded random digraphs small enough to enumerate.
func tableGraphs() []*graph.Graph {
	gs := []*graph.Graph{
		graph.Fig1a(), graph.Fig1bAnalog(), graph.Clique(4), graph.Clique(5),
		graph.DirectedCycle(8), graph.Wheel(5),
	}
	for seed := int64(0); seed < 40; seed++ {
		gs = append(gs, graph.RandomDigraph(4+int(seed%4), 0.3+0.05*float64(seed%5), seed))
	}
	return gs
}

// admissionProtos are the fuzzed door's topologies, built once, each with
// the simple walk's tables beside the BW plan's redundant ones.
var admissionProtos = func() (ps []struct {
	*Proto
	simple *graph.PathTables
}) {
	for _, g := range []*graph.Graph{graph.Fig1a(), graph.Clique(4), graph.DirectedCycle(5), graph.RandomDigraph(6, 0.4, 11)} {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			panic(err)
		}
		ps = append(ps, struct {
			*Proto
			simple *graph.PathTables
		}{p, graph.NewPathTables(g, true, 0)})
	}
	return ps
}()

// FuzzPathAdmission feeds the door arbitrary (sender, entry) pairs — senders
// below zero, past the graph or not in-neighbors, ids below zero, past the
// sender's table, or naming a path the flood does not extend here — on the
// redundant table, as a VAL and as a COMPLETE to a BW machine, and on the
// simple one, to the door alone. The door admits exactly when the sender is
// an in-neighbor, the id one of its table's entries, and the path that entry
// spells stays one the flood travels extended by the receiver (for the
// redundant walk the per-delivery predicate the table replaced, redundantExt;
// for the simple one, the receiver is not on it), and it lands on the entry
// spelling the extension. BW admits a VAL exactly when the door does, and a
// COMPLETE when the extended path is also simple and starts at the claimed
// origin; every other frame is counted in PathDropped, and nothing panics.
func FuzzPathAdmission(f *testing.F) {
	f.Add(uint8(0), uint8(0), int8(1), int32(0), int8(1), false)             // fig1a: a neighbor's own value
	f.Add(uint8(0), uint8(0), int8(1), int32(3), int8(2), false)             // an honest relay's entry
	f.Add(uint8(0), uint8(0), int8(1), int32(-1), int8(1), false)            // id below zero
	f.Add(uint8(0), uint8(0), int8(1), int32(1<<30), int8(1), false)         // id past the table
	f.Add(uint8(0), uint8(0), int8(9), int32(0), int8(9), false)             // sender past the graph
	f.Add(uint8(0), uint8(0), int8(-1), int32(0), int8(0), false)            // sender below zero
	f.Add(uint8(0), uint8(0), int8(0), int32(0), int8(0), false)             // the receiver itself
	f.Add(uint8(1), uint8(0), int8(1), int32(7), int8(1), false)             // clique:4
	f.Add(uint8(1), uint8(2), int8(3), int32(40), int8(0), false)            // clique:4, deeper
	f.Add(uint8(2), uint8(0), int8(4), int32(4), int8(0), false)             // cycle:5: all the way round
	f.Add(uint8(2), uint8(0), int8(3), int32(0), int8(3), false)             // cycle:5: no edge 3 -> 0
	f.Add(uint8(3), uint8(5), int8(0), int32(2), int8(0), false)             // random digraph
	f.Add(uint8(3), uint8(1), int8(2), int32(math.MaxInt32), int8(2), false) // the largest id
	f.Add(uint8(0), uint8(0), int8(1), int32(0), int8(0), true)              // simple, fig1a: a neighbor's own value
	f.Add(uint8(0), uint8(0), int8(1), int32(-1), int8(0), true)             // simple: id below zero
	f.Add(uint8(1), uint8(2), int8(3), int32(12), int8(0), true)             // simple, clique:4, deeper
	f.Add(uint8(2), uint8(0), int8(4), int32(3), int8(0), true)              // simple, cycle:5: the longest path in
	f.Add(uint8(2), uint8(0), int8(4), int32(4), int8(0), true)              // simple, cycle:5: all the way round
	f.Fuzz(func(t *testing.T, pick, node uint8, sender int8, id int32, origin int8, simple bool) {
		proto := admissionProtos[int(pick)%len(admissionProtos)]
		g := proto.G
		v, from := int(node)%g.N(), int(sender)
		tables := proto.getPlan().paths
		if simple {
			tables = proto.simple
		}
		tbl, err := tables.Table(v)
		if err != nil {
			t.Fatal(err)
		}
		want := int32(-1)
		var path graph.Path
		if from >= 0 && from < g.N() {
			src, err := tables.Table(from)
			if err != nil {
				t.Fatal(err)
			}
			if id >= 0 && int(id) < len(src.Head) {
				path = spell(src, id)
				ext := redundantExt{mark: make([]uint64, g.N())}
				travels := ext.analyze(path) && ext.extendable(v)
				if simple {
					travels = !graph.SetOf(path...).Has(v)
				}
				if g.HasEdge(from, v) && travels {
					if want = entryOf(tbl, path.Append(v)); want < 0 {
						t.Fatalf("%s node %d: %v from %d is no entry here", g, v, path.Append(v), from)
					}
				}
			}
		}
		if got := tbl.Door(from, id); got != want {
			t.Fatalf("%s simple=%v node %d: entry %d %v from %d maps to %d, want %d", g, simple, v, id, path, from, got, want)
		}
		if simple {
			return
		}
		wantComplete := want >= 0 && path.Append(v).IsSimple() && path.Init() == int(origin)

		m, err := NewMachine(proto.Proto, v, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out := sim.NewCollector(v, g)
		m.Start(out)
		m.Deliver(transport.Message{From: from, To: v, Payload: ValPayload{Round: 1, Value: 1, Entry: id}}, out)
		if got := m.metrics.PathDropped == 0; got != (want >= 0) {
			t.Fatalf("%s node %d: VAL on entry %d %v from %d admitted=%v, want %v", g, v, id, path, from, got, want >= 0)
		}
		m.metrics.PathDropped = 0
		m.Deliver(transport.Message{From: from, To: v, Payload: CompletePayload{Round: 1, Origin: int(origin), Seq: 1, Entry: id}}, out)
		if got := m.metrics.PathDropped == 0; got != wantComplete {
			t.Fatalf("%s node %d: COMPLETE on entry %d %v from %d for origin %d admitted=%v, want %v", g, v, id, path, from, origin, got, wantComplete)
		}
	})
}
