package graph

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/weakcache"
)

// PathTables names the paths one flood travels to each vertex of a graph:
// every redundant path for Algorithm BW's RedundantFlood, or only the simple
// ones for the crash-fault flood. A vertex's table is built the first time
// it is asked for and an in-edge's door on the first message over it, each
// under its own sync.Once; safe for concurrent use.
type PathTables struct {
	g      *Graph
	simple bool
	budget int
	slots  []tableSlot
}

// tableSlot holds one vertex's table. A door's column needs the sender's
// table and a table's build waits on nothing, so no two builds can wait on
// each other (on a cycle, two such waits would deadlock).
type tableSlot struct {
	once  sync.Once
	table *PathTable
	err   error
}

// NewPathTables returns g's tables for the flood that travels the redundant
// paths or, with simple, the simple ones. More than budget paths ending at a
// vertex is ErrPathBudget for it (budget <= 0 means unlimited).
func NewPathTables(g *Graph, simple bool, budget int) *PathTables {
	return &PathTables{g: g, simple: simple, budget: budget, slots: make([]tableSlot, g.n)}
}

// tableCaches holds the shared tables of each walk, the redundant one at
// index 0, keyed by graph content and budget.
var tableCaches [2]weakcache.Cache[tablesKey, PathTables]

type tablesKey struct {
	content string
	budget  int
}

// SharedPathTables is NewPathTables shared by every caller whose graph has
// g's order and out-lists, whatever its name or identity, for the same walk
// and budget: the tables, and each table and door built in them, are built
// once while any caller holds them (see weakcache; each walk also keeps its
// most recently used tables). The tables are over a copy of g, so editing g
// afterwards cannot change them.
func SharedPathTables(g *Graph, simple bool, budget int) *PathTables {
	walk := 0
	if simple {
		walk = 1
	}
	return tableCaches[walk].Get(tablesKey{g.contentKey(), budget}, func() *PathTables {
		return NewPathTables(g.Clone(), simple, budget)
	})
}

// contentKey spells g's order and out-lists: two graphs have the same key
// exactly when they have the same edges on the same vertices.
func (g *Graph) contentKey() string {
	b := make([]byte, 0, 2*(1+g.n+g.edges))
	b = binary.AppendUvarint(b, uint64(g.n))
	for _, out := range g.out {
		b = binary.AppendUvarint(b, uint64(len(out)))
		for _, v := range out {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return string(b)
}

// Graph returns the graph the tables are over. It must not be modified.
func (ts *PathTables) Graph() *Graph { return ts.g }

// Table returns vertex v's table, building it the first time v is asked for.
func (ts *PathTables) Table(v int) (*PathTable, error) {
	s := &ts.slots[v]
	s.once.Do(func() { s.table, s.err = ts.build(v) })
	return s.table, s.err
}

// PathTable names every path the flood can deliver to one vertex v by a
// small integer, and messages carry that integer, never the path: a sender
// names a path by its own entry and the receiver maps (sender, entry) to its
// own through the in-edge's door (Door). An entry is its first vertex plus
// the entry of the rest of the path: entry 0 is the trivial path <v>, and the
// paths either walk visits are closed under dropping the first vertex, so
// the entries form a tree hanging from it, each below the entries that
// extend it. Whatever a machine would derive from a path's hops per delivery
// is a column, computed once from (G, v). The exported columns are
// read-only; the doors' columns are built once each, on first use.
type PathTable struct {
	Head []int32 // the path's first vertex: its initial node
	Next []int32 // the entry of the path without it; -1 for entry 0
	Set  []Set   // the path's vertices
	// Rank is the entry's position among all entries in Path.Key order —
	// the order BW floods COMPLETE entries in and Filter-and-Average breaks
	// value ties by — and ByRank lists the entries in that order.
	Rank, ByRank []int32
	// Stream numbers the simple entries 0..len(Simples)-1, -1 for the rest:
	// BW's FIFO floods travel on simple paths only (Appendix F), one stream
	// per path. Simples maps the numbers back.
	Stream, Simples []int32

	// kids[kidOff[e]+i] is the entry one vertex longer than e that begins
	// with the i-th in-neighbor of e's first vertex, -1 when the flood does
	// not travel that path.
	kidOff, kids []int32
	// ext[extOff[e]:extOff[e+1]] is Ext(e).
	extOff, ext []int32

	// The door: inRank maps a vertex to its position in G.In(v), -1 for the
	// rest; in holds one column per in-edge, in that order.
	tables *PathTables
	v      int
	inRank []int32
	in     []inColumn
}

// inColumn is the door of one in-edge (u, v): u's table mapped onto v's.
type inColumn struct {
	once sync.Once
	col  []int32
}

// build enumerates the paths ending at v with the reversed depth-first walk
// that counts them, O(in-degree + out-degree) per entry.
func (ts *PathTables) build(v int) (*PathTable, error) {
	g := ts.g
	// Counting first costs a second walk and saves growing the columns, one
	// of them of node sets, by doubling.
	kids := 0
	n, err := g.WalkRedundantPathsTo(v, EmptySet, ts.simple, ts.budget, func(w *RedundantWalk) {
		kids += len(g.in[w.Head])
	})
	if err != nil {
		return nil, err
	}
	t := &PathTable{
		Head:   make([]int32, 0, n),
		Next:   make([]int32, 0, n),
		Set:    make([]Set, 0, n),
		Stream: make([]int32, 0, n),
		kidOff: make([]int32, 0, n),
		kids:   make([]int32, kids),
		extOff: make([]int32, 0, n+1),
		tables: ts,
		v:      v,
		inRank: make([]int32, g.n),
		in:     make([]inColumn, len(g.in[v])),
	}
	for i := range t.kids {
		t.kids[i] = -1
	}
	for u := range t.inRank {
		t.inRank[u] = -1
	}
	for j, u := range g.in[v] {
		t.inRank[u] = int32(j)
	}
	out := g.out[v]
	// An entry's prefix packs the codes (vertex + 1, 0 past the end) of its
	// first vertices into one word, first vertex highest: its own code above
	// its suffix's word shifted down. Words compare as the paths do wherever
	// they differ, which on a small graph is everywhere.
	type ranked struct {
		prefix uint64
		e      int32
	}
	order := make([]ranked, 0, n)
	codeBits := bits.Len(uint(g.n))
	kids = 0
	g.WalkRedundantPathsTo(v, EmptySet, ts.simple, ts.budget, func(w *RedundantWalk) {
		t.Head = append(t.Head, int32(w.Head))
		t.Next = append(t.Next, w.Suffix)
		t.kidOff = append(t.kidOff, int32(kids))
		kids += len(g.in[w.Head])
		code := uint64(w.Head+1) << (64 - codeBits)
		if w.Suffix < 0 {
			t.Set = append(t.Set, SetOf(w.Head))
			order = append(order, ranked{code, w.ID})
		} else {
			t.kids[t.kidOff[w.Suffix]+int32(slices.Index(g.in[t.Head[w.Suffix]], w.Head))] = w.ID
			t.Set = append(t.Set, t.Set[w.Suffix].Add(w.Head))
			order = append(order, ranked{code | order[w.Suffix].prefix>>codeBits, w.ID})
		}
		stream := int32(-1)
		if w.Simple {
			stream = int32(len(t.Simples))
			t.Simples = append(t.Simples, w.ID)
		}
		t.Stream = append(t.Stream, stream)
		t.extOff = append(t.extOff, int32(len(t.ext)))
		for _, x := range out {
			if w.ExtendsBy(x) {
				t.ext = append(t.ext, int32(x))
			}
		}
	})
	t.extOff = append(t.extOff, int32(len(t.ext)))

	slices.SortFunc(order, func(a, b ranked) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return t.compare(a.e, b.e)
	})
	t.ByRank = make([]int32, n)
	t.Rank = make([]int32, n)
	for pos, r := range order {
		t.ByRank[pos], t.Rank[r.e] = r.e, int32(pos)
	}
	return t, nil
}

// compare orders two entries as Path.Key orders their paths — vertex by
// vertex from the front, a proper prefix first — by walking both down to
// where they merge; no key is built to sort.
func (t *PathTable) compare(a, b int32) int {
	for a != b {
		if a < 0 || b < 0 {
			return cmp.Compare(a, b) // the one that ran out is a prefix of the other
		}
		if c := cmp.Compare(t.Head[a], t.Head[b]); c != 0 {
			return c
		}
		a, b = t.Next[a], t.Next[b]
	}
	return 0
}

// Ext returns the out-neighbors w of v, in G.Out order, for which the flood
// travels entry e's path extended by w: where a message accepted on e is
// relayed (Algorithm 4 line 5 for BW).
func (t *PathTable) Ext(e int32) []int32 { return t.ext[t.extOff[e]:t.extOff[e+1]] }

// Door maps entry e of in-neighbor from's table to the entry here for that
// path extended by v: a bounds check and one lookup in the in-edge's column.
// It returns -1 when from is no in-neighbor, e is none of its entries, or the
// flood does not travel the extended path.
func (t *PathTable) Door(from int, e int32) int32 {
	if uint(from) >= uint(len(t.inRank)) {
		return -1
	}
	j := t.inRank[from]
	if j < 0 {
		return -1
	}
	col := t.column(j)
	if uint(e) >= uint(len(col)) {
		return -1
	}
	return col[e]
}

// column returns the door of v's j-th in-edge (u, v), building it on first
// use: col[e] is the entry here for u's path e extended by v, -1 when the
// flood does not travel that walk. A suffix's entry is below its path's, so
// one pass in entry order finds each as a child of its suffix's image:
// col[0] is <u, v>, and path e is head_u[e] prepended to path next_u[e].
// What a sender can name is its own table, every path the flood delivers to
// it, and the column admits exactly those the flood extends to v — what the
// receiver-side check of BW's Appendix E admits from a spelled-out path. A
// sender whose own table exceeds the budget can run no honest machine; its
// column is empty, so every entry it names is dropped.
func (t *PathTable) column(j int32) []int32 {
	ic := &t.in[j]
	ic.once.Do(func() {
		g := t.tables.g
		src, err := t.tables.Table(g.in[t.v][j])
		if err != nil {
			ic.col = []int32{}
			return
		}
		col := make([]int32, len(src.Head))
		col[0] = t.kids[t.kidOff[0]+j]
		for e := 1; e < len(col); e++ {
			c := col[src.Next[e]]
			if c < 0 {
				col[e] = -1
				continue
			}
			// src.Head[e] precedes path Next[e] in a walk of G, so it is an
			// in-neighbor of that path's first vertex, which is c's.
			col[e] = t.kids[t.kidOff[c]+int32(slices.Index(g.in[t.Head[c]], int(src.Head[e])))]
		}
		ic.col = col
	})
	return ic.col
}
