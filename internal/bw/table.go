package bw

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// pathTable names every redundant path of G that ends at one vertex v —
// every path a VAL or COMPLETE can reach v along — by a small integer, and
// messages carry that integer, never the path: a sender names a path by its
// own entry and the receiver maps (sender, entry) to its own through the
// in-edge's column (column). An entry is its first vertex plus the entry of
// the rest of the path: entry 0 is the trivial path <v>, and the paths
// ending at v are closed under dropping the first vertex, so the entries
// form a tree hanging from it, each below the entries that extend it.
// Whatever the machine used to derive from a path's hops per delivery is a
// column, computed once from (G, v). Read-only once built.
type pathTable struct {
	head []int32 // the path's first vertex: its initial node
	next []int32 // the entry of the path without it; -1 for entry 0
	// kids[kidOff[e]+i] is the entry one vertex longer than e that begins
	// with the i-th in-neighbor of e's first vertex, -1 when that path is
	// not redundant.
	kidOff, kids []int32

	set []graph.Set // the path's vertices
	// rank is the entry's position among all entries in Path.Key order —
	// the order COMPLETE entries are flooded in and Filter-and-Average
	// breaks value ties by — and byRank lists the entries in that order.
	rank, byRank []int32
	// stream numbers the simple entries 0..len(simples)-1, -1 for the
	// rest: FIFO floods travel on simple paths only (Appendix F), one
	// stream per path. simples maps the numbers back.
	stream, simples []int32
	// ext[extOff[e]:extOff[e+1]] are the out-neighbors w of v, in G.Out
	// order, for which the path extended by w is still redundant: where a
	// VAL accepted on the entry is relayed (Algorithm 4 line 5).
	extOff, ext []int32
}

// buildPathTable enumerates the redundant paths ending at v with the
// reversed depth-first walk that counts them, O(in-degree + out-degree) per
// entry; more than budget entries is graph.ErrPathBudget.
func buildPathTable(g *graph.Graph, v, budget int) (*pathTable, error) {
	// Counting first costs a second walk and saves growing the columns, one
	// of them of node sets, by doubling.
	kids := 0
	n, err := g.WalkRedundantPathsTo(v, graph.EmptySet, budget, func(w *graph.RedundantWalk) {
		kids += len(g.In(w.Head))
	})
	if err != nil {
		return nil, err
	}
	t := &pathTable{
		head:   make([]int32, 0, n),
		next:   make([]int32, 0, n),
		kidOff: make([]int32, 0, n),
		kids:   make([]int32, kids),
		set:    make([]graph.Set, 0, n),
		stream: make([]int32, 0, n),
		extOff: make([]int32, 0, n+1),
	}
	for i := range t.kids {
		t.kids[i] = -1
	}
	out := g.Out(v)
	// An entry's prefix packs the codes (vertex + 1, 0 past the end) of its
	// first vertices into one word, first vertex highest: its own code above
	// its suffix's word shifted down. Words compare as the paths do wherever
	// they differ, which on a small graph is everywhere.
	type ranked struct {
		prefix uint64
		e      int32
	}
	order := make([]ranked, 0, n)
	codeBits := bits.Len(uint(g.N()))
	kids = 0
	g.WalkRedundantPathsTo(v, graph.EmptySet, budget, func(w *graph.RedundantWalk) {
		t.head = append(t.head, int32(w.Head))
		t.next = append(t.next, w.Suffix)
		t.kidOff = append(t.kidOff, int32(kids))
		kids += len(g.In(w.Head))
		code := uint64(w.Head+1) << (64 - codeBits)
		if w.Suffix < 0 {
			t.set = append(t.set, graph.SetOf(w.Head))
			order = append(order, ranked{code, w.ID})
		} else {
			t.kids[t.kidOff[w.Suffix]+int32(slices.Index(g.In(int(t.head[w.Suffix])), w.Head))] = w.ID
			t.set = append(t.set, t.set[w.Suffix])
			addNode(&t.set[w.ID], w.Head)
			order = append(order, ranked{code | order[w.Suffix].prefix>>codeBits, w.ID})
		}
		stream := int32(-1)
		if w.Simple {
			stream = int32(len(t.simples))
			t.simples = append(t.simples, w.ID)
		}
		t.stream = append(t.stream, stream)
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
	t.byRank = make([]int32, n)
	t.rank = make([]int32, n)
	for pos, r := range order {
		t.byRank[pos], t.rank[r.e] = r.e, int32(pos)
	}

	return t, nil
}

// compare orders two entries as Path.Key orders their paths — vertex by
// vertex from the front, a proper prefix first — by walking both down to
// where they merge; no key is built to sort.
func (t *pathTable) compare(a, b int32) int {
	for a != b {
		if a < 0 || b < 0 {
			return cmp.Compare(a, b) // the one that ran out is a prefix of the other
		}
		if c := cmp.Compare(t.head[a], t.head[b]); c != 0 {
			return c
		}
		a, b = t.next[a], t.next[b]
	}
	return 0
}

// column maps the entries of in-neighbor u's table src onto t, the table
// of v: col[e] is t's entry for src's path e extended by v, -1 when that
// walk is not redundant. A suffix's entry is below its path's, so one pass
// in entry order finds each as a child of its suffix's image: col[0] is
// <u, v>, and path e is head_u[e] prepended to path next_u[e]. What a
// sender can name is its own table, every redundant path ending at it, and
// the column admits exactly those whose extension is redundant here — what
// the receiver-side check of Appendix E admits from a spelled-out path.
func (t *pathTable) column(g *graph.Graph, v int, src *pathTable, u int) []int32 {
	col := make([]int32, len(src.head))
	col[0] = t.kids[t.kidOff[0]+int32(slices.Index(g.In(v), u))]
	for e := 1; e < len(col); e++ {
		c := col[src.next[e]]
		if c < 0 {
			col[e] = -1
			continue
		}
		// src.head[e] precedes path next[e] in a walk of G, so it is an
		// in-neighbor of that path's first vertex, which is c's.
		col[e] = t.kids[t.kidOff[c]+int32(slices.Index(g.In(int(t.head[c])), int(src.head[e])))]
	}
	return col
}
