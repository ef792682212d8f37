package bw

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// tableGraphs are the topologies the path table is held to the definitions
// on: the paper's figures, the dense and sparse extremes, and seeded random
// digraphs small enough to enumerate.
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

// TestPathTableMatchesReference holds every column of every vertex's table
// to the definition it stands in for: the entries are graph.RedundantPathsTo,
// rank is the position in sorted Path.Key order, set/head/stream are
// Path.Set/Init/IsSimple, the relay list is the reference redundantExt, the
// reference door finds each entry from the path its in-neighbor names, and each
// thread's fullness count and FIFO requirements are what
// CountRedundantPathsTo and SimplePathsTo gave before the table.
func TestPathTableMatchesReference(t *testing.T) {
	for _, g := range tableGraphs() {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		ext := redundantExt{mark: make([]uint64, g.N())}
		for v := 0; v < g.N(); v++ {
			pre, err := p.nodePre(v)
			if errors.Is(err, graph.ErrPathBudget) {
				continue // a random digraph too dense to flood
			}
			if err != nil {
				t.Fatal(err)
			}
			tbl := pre.paths
			want, err := g.RedundantPathsTo(v, graph.EmptySet, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.head) != len(want) {
				t.Fatalf("%s node %d: %d entries, %d redundant paths end here", g, v, len(tbl.head), len(want))
			}
			sorted := make([]string, 0, len(want))
			for k := range want {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			streams := 0
			for e := range tbl.head {
				path := tbl.spell(int32(e))
				key := path.Key()
				if _, ok := want[key]; !ok {
					t.Fatalf("%s node %d entry %d: path %v is no redundant path ending here", g, v, e, path)
				}
				if int(tbl.head[e]) != path.Init() || tbl.set[e] != path.Set() {
					t.Errorf("%s node %d entry %v: head %d set %s", g, v, path, tbl.head[e], tbl.set[e])
				}
				if s := tbl.next[e]; s < 0 && len(path) != 1 || s >= 0 && !slices.Equal(tbl.spell(s), path[1:]) {
					t.Errorf("%s node %d entry %v: suffix entry %d", g, v, path, s)
				}
				if sorted[tbl.rank[e]] != key || tbl.byRank[tbl.rank[e]] != int32(e) {
					t.Errorf("%s node %d entry %v: rank %d", g, v, path, tbl.rank[e])
				}
				if s := tbl.stream[e]; (s >= 0) != path.IsSimple() || s >= 0 && tbl.simples[s] != int32(e) {
					t.Errorf("%s node %d entry %v: stream %d", g, v, path, s)
				} else if s >= 0 {
					streams++
				}
				if !ext.analyze(path) {
					t.Fatalf("%s node %d entry %v: the reference calls it not redundant", g, v, path)
				}
				var relays []int32
				for _, w := range g.Out(v) {
					if ext.extendable(w) {
						relays = append(relays, int32(w))
					}
				}
				if got := tbl.ext[tbl.extOff[e]:tbl.extOff[e+1]]; !slices.Equal(got, relays) {
					t.Errorf("%s node %d entry %v: relayed to %v, the reference says %v", g, v, path, got, relays)
				}
				if len(path) > 1 {
					if got := tbl.resolve(g, path[:len(path)-1], path[len(path)-2]); got != int32(e) {
						t.Errorf("%s node %d entry %v: the door resolves it to %d, want %d", g, v, path, got, e)
					}
				}
			}
			if streams != len(tbl.simples) {
				t.Errorf("%s node %d: %d simple entries, %d streams", g, v, streams, len(tbl.simples))
			}

			for _, th := range pre.threads {
				count, err := g.CountRedundantPathsTo(v, th.fv, 0)
				if err != nil {
					t.Fatal(err)
				}
				if th.expectedCount != count {
					t.Errorf("%s node %d thread %s: expectedCount %d, CountRedundantPathsTo %d", g, v, th.fv, th.expectedCount, count)
				}
				simple, err := g.SimplePathsTo(v, g.Nodes().Minus(th.reach), 0)
				if err != nil {
					t.Fatal(err)
				}
				perOrigin := make(map[int]int)
				wantKeys := make(map[string]bool)
				for _, sp := range simple {
					perOrigin[sp.Init()]++
					wantKeys[sp.Key()] = true
				}
				seen := make(map[[2]int32]bool) // (origin, number)
				for s, num := range th.required {
					e := tbl.simples[s]
					if (num >= 0) != wantKeys[tbl.spell(e).Key()] {
						t.Errorf("%s node %d thread %s: stream %v numbered %d", g, v, th.fv, tbl.spell(e), num)
					}
					if num < 0 {
						continue
					}
					if k := [2]int32{tbl.head[e], num}; seen[k] || int(num) >= perOrigin[int(tbl.head[e])] {
						t.Errorf("%s node %d thread %s: stream %v reuses or overshoots number %d", g, v, th.fv, tbl.spell(e), num)
					} else {
						seen[k] = true
					}
				}
				if len(seen) != len(simple) || th.origins != len(perOrigin) {
					t.Errorf("%s node %d thread %s: %d required streams over %d origins, want %d over %d", g, v, th.fv, len(seen), th.origins, len(simple), len(perOrigin))
				}
				for r, c := range th.reach.Members() {
					if int(th.need[r]) != perOrigin[c] {
						t.Errorf("%s node %d thread %s origin %d: need %d, want %d", g, v, th.fv, c, th.need[r], perOrigin[c])
					}
				}
			}
		}
	}
}

// TestPathTableColumnsMatchResolve holds every in-edge's column to the
// reference door: for every edge (u, v) and every entry e of u's table,
// column[e] is what resolve makes of the path e spells, received from u.
func TestPathTableColumnsMatchResolve(t *testing.T) {
	gs := []*graph.Graph{graph.Fig1a(), graph.Clique(4), graph.DirectedCycle(5)}
	if !testing.Short() {
		gs = append(gs, graph.Fig1bAnalog())
	}
	for _, g := range gs {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			pre, err := p.nodePre(v)
			if err != nil {
				t.Fatal(err)
			}
			for j, u := range g.In(v) {
				src, err := p.table(u)
				if err != nil {
					t.Fatal(err)
				}
				col := p.column(pre, v, int32(j))
				if len(col) != len(src.head) {
					t.Fatalf("%s edge (%d, %d): %d column entries, %d in the sender's table", g, u, v, len(col), len(src.head))
				}
				for e, got := range col {
					path := src.spell(int32(e))
					if want := pre.paths.resolve(g, path, u); got != want {
						t.Fatalf("%s edge (%d, %d) entry %d %v: column %d, resolve %d", g, u, v, e, path, got, want)
					}
				}
			}
		}
	}
}

// admissionProtos are the fuzzed door's topologies, built once.
var admissionProtos = func() []*Proto {
	var ps []*Proto
	for _, g := range []*graph.Graph{graph.Fig1a(), graph.Clique(4), graph.DirectedCycle(5), graph.RandomDigraph(6, 0.4, 11)} {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			panic(err)
		}
		ps = append(ps, p)
	}
	return ps
}()

// FuzzPathAdmission feeds the door arbitrary (sender, entry) pairs — senders
// below zero, past the graph or not in-neighbors, ids below zero, past the
// sender's table, or naming a path whose extension is not redundant here —
// as a VAL and as a COMPLETE. A VAL is admitted exactly when the sender is a
// vertex, the id one of its table's entries, and the reference resolve
// admits the path that entry spells, and it lands on resolve's entry; a
// COMPLETE when that path extended by the receiver is also simple and
// starts at the claimed origin.
// Every other frame is counted in PathDropped, and nothing panics.
func FuzzPathAdmission(f *testing.F) {
	f.Add(uint8(0), uint8(0), int8(1), int32(0), int8(1))             // fig1a: a neighbor's own value
	f.Add(uint8(0), uint8(0), int8(1), int32(3), int8(2))             // an honest relay's entry
	f.Add(uint8(0), uint8(0), int8(1), int32(-1), int8(1))            // id below zero
	f.Add(uint8(0), uint8(0), int8(1), int32(1<<30), int8(1))         // id past the table
	f.Add(uint8(0), uint8(0), int8(9), int32(0), int8(9))             // sender past the graph
	f.Add(uint8(0), uint8(0), int8(-1), int32(0), int8(0))            // sender below zero
	f.Add(uint8(0), uint8(0), int8(0), int32(0), int8(0))             // the receiver itself
	f.Add(uint8(1), uint8(0), int8(1), int32(7), int8(1))             // clique:4
	f.Add(uint8(1), uint8(2), int8(3), int32(40), int8(0))            // clique:4, deeper
	f.Add(uint8(2), uint8(0), int8(4), int32(4), int8(0))             // cycle:5: all the way round
	f.Add(uint8(2), uint8(0), int8(3), int32(0), int8(3))             // cycle:5: no edge 3 -> 0
	f.Add(uint8(3), uint8(5), int8(0), int32(2), int8(0))             // random digraph
	f.Add(uint8(3), uint8(1), int8(2), int32(math.MaxInt32), int8(2)) // the largest id
	f.Fuzz(func(t *testing.T, pick, node uint8, sender int8, id int32, origin int8) {
		proto := admissionProtos[int(pick)%len(admissionProtos)]
		g := proto.G
		v, from := int(node)%g.N(), int(sender)
		m, err := NewMachine(proto, v, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out := sim.NewCollector(v, g)
		m.Start(out)

		tbl := m.pre.paths
		want := int32(-1)
		var path graph.Path
		if from >= 0 && from < g.N() {
			src, err := proto.table(from)
			if err != nil {
				t.Fatal(err)
			}
			if id >= 0 && int(id) < len(src.head) {
				path = src.spell(id)
				want = tbl.resolve(g, path, from)
			}
		}
		wantComplete := want >= 0 && path.Append(v).IsSimple() && path.Init() == int(origin)

		if got := m.door(from, id); got != want {
			t.Fatalf("%s node %d: entry %d %v from %d maps to %d, resolve says %d", g, v, id, path, from, got, want)
		}
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
