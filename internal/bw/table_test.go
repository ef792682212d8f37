package bw

import (
	"errors"
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
// door finds each entry from the path its in-neighbor would send, and each
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
				path, key := tbl.path[e], tbl.key[e]
				if _, ok := want[key]; !ok || path.Key() != key {
					t.Fatalf("%s node %d entry %d: path %v under key %q is no redundant path ending here", g, v, e, path, key)
				}
				if int(tbl.head[e]) != path.Init() || tbl.set[e] != path.Set() {
					t.Errorf("%s node %d entry %v: head %d set %s", g, v, path, tbl.head[e], tbl.set[e])
				}
				if s := tbl.next[e]; s < 0 && len(path) != 1 || s >= 0 && !slices.Equal(tbl.path[s], path[1:]) {
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
					if got := tbl.resolve(path[:len(path)-1], path[len(path)-2]); got != int32(e) {
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
					if (num >= 0) != wantKeys[tbl.key[e]] {
						t.Errorf("%s node %d thread %s: stream %v numbered %d", g, v, th.fv, tbl.path[e], num)
					}
					if num < 0 {
						continue
					}
					if k := [2]int32{tbl.head[e], num}; seen[k] || int(num) >= perOrigin[int(tbl.head[e])] {
						t.Errorf("%s node %d thread %s: stream %v reuses or overshoots number %d", g, v, th.fv, tbl.path[e], num)
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

// FuzzPathAdmission feeds the door arbitrary vertex sequences — empty,
// over-long, ids below zero or past the graph, non-edges, non-redundant
// walks, foreign terminals — as a VAL and as a COMPLETE from an arbitrary
// sender. A VAL is admitted exactly when the path is non-empty, ends at the
// sender, and extended by the receiver is a redundant walk of G; a COMPLETE
// when that walk is also simple and starts at the claimed origin; every
// other frame is counted in PathDropped, and nothing panics.
func FuzzPathAdmission(f *testing.F) {
	f.Add(uint8(0), uint8(0), int8(1), int8(2), []byte{2, 1})          // fig1a: an honest relay
	f.Add(uint8(0), uint8(0), int8(1), int8(1), []byte{})              // empty
	f.Add(uint8(0), uint8(0), int8(1), int8(2), []byte{2, 3})          // foreign terminal
	f.Add(uint8(0), uint8(0), int8(1), int8(9), []byte{9, 1})          // vertex past the graph
	f.Add(uint8(0), uint8(0), int8(1), int8(-1), []byte{0xff, 1})      // vertex below zero
	f.Add(uint8(1), uint8(0), int8(1), int8(1), []byte{1, 2, 1, 2, 1}) // clique:4: not redundant
	f.Add(uint8(1), uint8(0), int8(1), int8(1), []byte{1, 0, 1})       // redundant, not simple
	f.Add(uint8(1), uint8(2), int8(3), int8(0), []byte{0, 1, 3})       // wrong origin
	f.Add(uint8(2), uint8(0), int8(4), int8(0), []byte{0, 1, 2, 3, 4}) // cycle:5: all the way round
	f.Add(uint8(2), uint8(0), int8(4), int8(3), []byte{3, 2, 4})       // non-edges
	f.Add(uint8(2), uint8(3), int8(2), int8(3), bytes40())             // over-long
	f.Add(uint8(3), uint8(5), int8(0), int8(0), []byte{0})             // random digraph
	f.Fuzz(func(t *testing.T, pick, node uint8, sender, origin int8, raw []byte) {
		proto := admissionProtos[int(pick)%len(admissionProtos)]
		g := proto.G
		v, from := int(node)%g.N(), int(sender)
		path := make(graph.Path, len(raw))
		for i, b := range raw {
			path[i] = int(int8(b))
		}
		m, err := NewMachine(proto, v, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out := sim.NewCollector(v, g)
		m.Start(out)

		whole := path.Append(v)
		wantVal := len(path) > 0 && path.Ter() == from && whole.ValidIn(g) && whole.IsRedundant()
		wantComplete := wantVal && whole.IsSimple() && path.Init() == int(origin)

		m.Deliver(transport.Message{From: from, To: v, Payload: ValPayload{Round: 1, Value: 1, Path: path}}, out)
		if got := m.metrics.PathDropped == 0; got != wantVal {
			t.Fatalf("%s node %d: VAL on %v from %d admitted=%v, want %v", g, v, path, from, got, wantVal)
		}
		if e := m.pre.paths.resolve(path, from); wantVal && !slices.Equal(m.pre.paths.path[e], whole) {
			t.Fatalf("%s node %d: %v from %d resolved to %v", g, v, path, from, m.pre.paths.path[e])
		}
		m.metrics.PathDropped = 0
		m.Deliver(transport.Message{From: from, To: v, Payload: CompletePayload{Round: 1, Origin: int(origin), Seq: 1, Path: path}}, out)
		if got := m.metrics.PathDropped == 0; got != wantComplete {
			t.Fatalf("%s node %d: COMPLETE on %v from %d for origin %d admitted=%v, want %v", g, v, path, from, origin, got, wantComplete)
		}
	})
}

func bytes40() []byte {
	b := make([]byte, 40)
	for i := range b {
		b[i] = byte((i + 3) % 5)
	}
	return b
}
