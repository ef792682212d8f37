package graph

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The door as it was while messages spelled paths out, kept as the
// reference the in-edge columns are tested against: every delivery walked
// the received path hop by hop through the receiver's table.

// resolve returns the entry of t for path extended by t's vertex, for a
// path received from in-neighbor from, or -1 when there is none: path is
// empty, does not end at from, leaves the graph, or the flood does not
// travel its extension. Exact — it walks the hops back from the vertex
// through the entries' children — so what it admits is bounded by the
// topology, whatever the sender is.
func (t *PathTable) resolve(g *Graph, path Path, from int) int32 {
	if len(path) == 0 || path[len(path)-1] != from {
		return -1
	}
	e := int32(0)
	for i := len(path) - 1; i >= 0 && e >= 0; i-- {
		j := slices.Index(g.In(int(t.Head[e])), path[i])
		if j < 0 {
			return -1 // no such vertex, or no edge from it
		}
		e = t.kids[int(t.kidOff[e])+j]
	}
	return e
}

// spell returns the path entry e names.
func (t *PathTable) spell(e int32) Path {
	var p Path
	for ; e >= 0; e = t.Next[e] {
		p = append(p, int(t.Head[e]))
	}
	return p
}

// tableGraphs are the topologies the path tables are held to the
// definitions on: the paper's figures, the dense and sparse extremes, and
// seeded random digraphs small enough to enumerate.
func tableGraphs() []*Graph {
	gs := []*Graph{Fig1a(), Fig1bAnalog(), Clique(4), Clique(5), DirectedCycle(8), Wheel(5)}
	for seed := int64(0); seed < 40; seed++ {
		gs = append(gs, RandomDigraph(4+int(seed%4), 0.3+0.05*float64(seed%5), seed))
	}
	return gs
}

// walks names the two floods a table is built for.
var walks = []struct {
	name   string
	simple bool
	// travels reports whether the flood travels a path: the walk's
	// definition, against which every column is held.
	travels func(Path) bool
}{
	{"redundant", false, Path.IsRedundant},
	{"simple", true, Path.IsSimple},
}

// TestPathTableMatchesReference holds every column of every vertex's table,
// for both walks, to the definition it stands in for: the entries are
// RedundantPathsTo (SimplePathsTo for the simple walk, every entry simple),
// rank is the position in sorted Path.Key order, Set/Head/Stream are
// Path.Set/Init/IsSimple, the relay list is the out-neighbors the flood
// extends the path to in G.Out order — for the simple walk, the ones off
// the path — and the reference door finds each entry from the path its
// in-neighbor names.
func TestPathTableMatchesReference(t *testing.T) {
	for _, g := range tableGraphs() {
		for _, walk := range walks {
			ts := NewPathTables(g, walk.simple, 250_000)
			for v := 0; v < g.N(); v++ {
				tbl, err := ts.Table(v)
				if errors.Is(err, ErrPathBudget) {
					continue // a random digraph too dense to flood
				}
				if err != nil {
					t.Fatal(err)
				}
				want, err := g.RedundantPathsTo(v, EmptySet, 0)
				if walk.simple {
					want, err = simplePathKeys(g, v, EmptySet)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(tbl.Head) != len(want) {
					t.Fatalf("%s %s node %d: %d entries, %d paths end here", g, walk.name, v, len(tbl.Head), len(want))
				}
				sorted := make([]string, 0, len(want))
				for k := range want {
					sorted = append(sorted, k)
				}
				sort.Strings(sorted)
				streams := 0
				for e := range tbl.Head {
					path := tbl.spell(int32(e))
					key := path.Key()
					if _, ok := want[key]; !ok {
						t.Fatalf("%s %s node %d entry %d: path %v is none of the paths ending here", g, walk.name, v, e, path)
					}
					if walk.simple && !path.IsSimple() {
						t.Errorf("%s simple node %d entry %v: not simple", g, v, path)
					}
					if int(tbl.Head[e]) != path.Init() || tbl.Set[e] != path.Set() {
						t.Errorf("%s %s node %d entry %v: head %d set %s", g, walk.name, v, path, tbl.Head[e], tbl.Set[e])
					}
					if s := tbl.Next[e]; s < 0 && len(path) != 1 || s >= 0 && !slices.Equal(tbl.spell(s), path[1:]) {
						t.Errorf("%s %s node %d entry %v: suffix entry %d", g, walk.name, v, path, s)
					}
					if sorted[tbl.Rank[e]] != key || tbl.ByRank[tbl.Rank[e]] != int32(e) {
						t.Errorf("%s %s node %d entry %v: rank %d", g, walk.name, v, path, tbl.Rank[e])
					}
					if s := tbl.Stream[e]; (s >= 0) != path.IsSimple() || s >= 0 && tbl.Simples[s] != int32(e) {
						t.Errorf("%s %s node %d entry %v: stream %d", g, walk.name, v, path, s)
					} else if s >= 0 {
						streams++
					}
					var relays []int32
					for _, w := range g.Out(v) {
						if walk.travels(path.Append(w)) {
							relays = append(relays, int32(w))
						}
					}
					if got := tbl.Ext(int32(e)); !slices.Equal(got, relays) {
						t.Errorf("%s %s node %d entry %v: relayed to %v, the definition says %v", g, walk.name, v, path, got, relays)
					}
					if len(path) > 1 {
						if got := tbl.resolve(g, path[:len(path)-1], path[len(path)-2]); got != int32(e) {
							t.Errorf("%s %s node %d entry %v: the door resolves it to %d, want %d", g, walk.name, v, path, got, e)
						}
					}
				}
				if streams != len(tbl.Simples) {
					t.Errorf("%s %s node %d: %d simple entries, %d streams", g, walk.name, v, streams, len(tbl.Simples))
				}
			}
		}
	}
}

// TestPathTableColumnsMatchResolve holds every in-edge's door, for both
// walks, to the reference: for every edge (u, v) and every entry e of u's
// table, column[e] — and Door(u, e) — is what resolve makes of the path e
// spells, received from u.
func TestPathTableColumnsMatchResolve(t *testing.T) {
	gs := []*Graph{Fig1a(), Clique(4), DirectedCycle(5)}
	if !testing.Short() {
		gs = append(gs, Fig1bAnalog())
	}
	for _, g := range gs {
		for _, walk := range walks {
			ts := NewPathTables(g, walk.simple, 0)
			for v := 0; v < g.N(); v++ {
				tbl, err := ts.Table(v)
				if err != nil {
					t.Fatal(err)
				}
				for j, u := range g.In(v) {
					src, err := ts.Table(u)
					if err != nil {
						t.Fatal(err)
					}
					col := tbl.column(int32(j))
					if len(col) != len(src.Head) {
						t.Fatalf("%s %s edge (%d, %d): %d column entries, %d in the sender's table", g, walk.name, u, v, len(col), len(src.Head))
					}
					for e, got := range col {
						path := src.spell(int32(e))
						if want := tbl.resolve(g, path, u); got != want || tbl.Door(u, int32(e)) != want {
							t.Fatalf("%s %s edge (%d, %d) entry %d %v: column %d, resolve %d", g, walk.name, u, v, e, path, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPathTablesConcurrent: machines of one run share the tables and build
// doors from their own goroutines. Every vertex's doors are opened from
// several goroutines at once — on a directed cycle each column waits on its
// in-neighbor's table, the shape a nested wait would deadlock on — and
// every answer equals the one a single goroutine gets from fresh tables.
func TestPathTablesConcurrent(t *testing.T) {
	for _, g := range []*Graph{DirectedCycle(6), Fig1a()} {
		for _, walk := range walks {
			want := doorDump(t, NewPathTables(g, walk.simple, 0), g)
			shared := NewPathTables(g, walk.simple, 0)
			got := make([][][]int32, 4)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = doorDump(t, shared, g)
				}()
			}
			wg.Wait()
			for i := range got {
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s %s: goroutine %d read other doors than a fresh build", g, walk.name, i)
				}
			}
		}
	}
}

// doorDump opens every door of every vertex, from the last vertex down, and
// returns what each maps every entry of its sender's table to.
func doorDump(t *testing.T, ts *PathTables, g *Graph) [][]int32 {
	var dump [][]int32
	for v := g.N() - 1; v >= 0; v-- {
		tbl, err := ts.Table(v)
		if err != nil {
			t.Error(err)
			return nil
		}
		for _, u := range g.In(v) {
			src, err := ts.Table(u)
			if err != nil {
				t.Error(err)
				return nil
			}
			col := make([]int32, len(src.Head))
			for e := range col {
				col[e] = tbl.Door(u, int32(e))
			}
			dump = append(dump, col)
		}
	}
	return dump
}

// TestPathTablesSharedByContent: SharedPathTables keys by what a graph is,
// not by which *Graph it is. Two graphs built apart, under other names, with
// the same order and out-lists get the same tables; another walk, budget,
// order or edge set gets its own. The tables are over a copy: editing a
// graph afterwards changes its content, hence its tables, and leaves the
// ones it shared untouched.
func TestPathTablesSharedByContent(t *testing.T) {
	a, b := Fig1a(), Wheel(4).SetName("rim")
	ts := SharedPathTables(a, false, 0)
	if SharedPathTables(b, false, 0) != ts {
		t.Fatal("equal graphs got distinct tables")
	}
	cut := Fig1a()
	cut.RemoveEdge(1, 2)
	grown := New(6)
	for _, e := range a.Edges() {
		grown.MustAddEdge(e[0], e[1])
	}
	for name, other := range map[string]*PathTables{
		"simple walk": SharedPathTables(a, true, 0),
		"budget":      SharedPathTables(a, false, 1000),
		"edge set":    SharedPathTables(cut, false, 0),
		"order":       SharedPathTables(grown, false, 0),
	} {
		if other == ts {
			t.Errorf("%s: shares fig1a's redundant tables", name)
		}
	}
	a.RemoveEdge(1, 2)
	if SharedPathTables(a, false, 0) != SharedPathTables(cut, false, 0) {
		t.Error("an edited graph did not get its new content's tables")
	}
	if SharedPathTables(b, false, 0) != ts || !ts.Graph().HasEdge(1, 2) {
		t.Error("editing a graph changed the tables it had shared")
	}
}
