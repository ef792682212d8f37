package bw

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// pathTable names every redundant path of G that ends at one vertex v —
// every path a VAL or COMPLETE can reach v along — by a small integer, so a
// received path is looked at once, at the door, and everything behind it
// indexes columns. An entry is its first vertex plus the entry of the rest
// of the path: entry 0 is the trivial path <v>, and the paths ending at v
// are closed under dropping the first vertex, so the entries form a tree
// hanging from it. Whatever the machine used to derive from a path's hops
// per delivery is a column, computed once from (G, v). Entry ids are local
// to v; the wire still spells paths out. Read-only once built.
type pathTable struct {
	head []int32 // the path's first vertex: its initial node
	next []int32 // the entry of the path without it; -1 for entry 0
	// kids[kidOff[e]+i] is the entry one vertex longer than e that begins
	// with the i-th in-neighbor of e's first vertex, -1 when that path is
	// not redundant.
	kidOff, kids []int32
	g            *graph.Graph

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

	// path and key spell the entry out for relays and COMPLETE entries.
	// An entry shares the backing array of one entry a vertex longer, so
	// the table holds one spelling per entry no longer entry continues, and
	// every round and relay of a run shares it: receivers must not write to
	// a path they are handed.
	path []graph.Path
	key  []string
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
		g:      g,
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
	length := make([]int32, 0, n)
	child := make([]int32, n) // some entry one vertex longer, 0 for none
	codeBits := bits.Len(uint(g.N()))
	kids = 0
	g.WalkRedundantPathsTo(v, graph.EmptySet, budget, func(w *graph.RedundantWalk) {
		t.head = append(t.head, int32(w.Head))
		t.next = append(t.next, w.Suffix)
		t.kidOff = append(t.kidOff, int32(kids))
		kids += len(g.In(w.Head))
		length = append(length, int32(w.Len))
		code := uint64(w.Head+1) << (64 - codeBits)
		if w.Suffix < 0 {
			t.set = append(t.set, graph.SetOf(w.Head))
			order = append(order, ranked{code, w.ID})
		} else {
			t.kids[t.kidOff[w.Suffix]+int32(slices.Index(g.In(int(t.head[w.Suffix])), w.Head))] = w.ID
			child[w.Suffix] = w.ID
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

	// Spell out the entries no longer entry continues, back to back in one
	// array; every other entry is the tail of a child's spelling.
	// Longer entries have larger ids, so walking down meets a child first.
	total := 0
	for e, k := range child {
		if k == 0 {
			total += int(length[e])
		}
	}
	all := make(graph.Path, 0, total)
	off := make([]int32, n)
	for e := int32(n) - 1; e >= 0; e-- {
		if k := child[e]; k > 0 {
			off[e] = off[k] + 1
			continue
		}
		off[e] = int32(len(all))
		for x := e; x >= 0; x = t.next[x] {
			all = append(all, int(t.head[x]))
		}
	}
	keys := all.Key()
	t.path = make([]graph.Path, n)
	t.key = make([]string, n)
	for e, lo := range off {
		hi := lo + length[e]
		t.path[e], t.key[e] = all[lo:hi:hi], keys[2*lo:2*hi]
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

// resolve returns the entry of path extended by v, for a path received from
// in-neighbor from, or -1 when there is none: path is empty, does not end at
// from, leaves the graph, or would not be redundant at v. Exact — it walks
// the hops back from v through the entries' children — so what it admits is
// bounded by the topology, whatever the sender is.
func (t *pathTable) resolve(path graph.Path, from int) int32 {
	if len(path) == 0 || path[len(path)-1] != from {
		return -1
	}
	e := int32(0)
	for i := len(path) - 1; i >= 0 && e >= 0; i-- {
		j := slices.Index(t.g.In(int(t.head[e])), path[i])
		if j < 0 {
			return -1 // no such vertex, or no edge from it
		}
		e = t.kids[int(t.kidOff[e])+j]
	}
	return e
}
