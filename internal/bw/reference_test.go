package bw

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// spell returns the path entry e of t names.
func spell(t *graph.PathTable, e int32) graph.Path {
	var p graph.Path
	for ; e >= 0; e = t.Next[e] {
		p = append(p, int(t.Head[e]))
	}
	return p
}

// entryOf returns the entry of t naming path, or -1 when path is none of
// its entries: a scan, independent of the doors it is a reference for.
func entryOf(t *graph.PathTable, path graph.Path) int32 {
	for e := range t.Head {
		if slices.Equal(spell(t, int32(e)), path) {
			return int32(e)
		}
	}
	return -1
}

// The per-delivery path predicates the path table replaced: before it,
// every delivery extended the received path by the local node, ran analyze
// over it and asked extendable per out-neighbor.

// redundantExt answers "is storage||w still a redundant path?" in O(1) per
// neighbor. With a = length of the longest all-distinct prefix and b = start
// of the longest all-distinct suffix, a walk is redundant iff b <= a-1
// (graph.Path.IsRedundant). Appending w moves a only when the walk was fully
// distinct, and moves b to just past w's last occurrence.
//
// The scratch array is epoch-tagged rather than cleared: analyze costs
// O(len(storage)) regardless of MaxNodes, which matters when the simulator
// pushes millions of deliveries through a single machine. Entries store
// epoch<<markShift | position+1; a mismatched epoch reads as "absent".
type redundantExt struct {
	n     int
	a, b  int
	epoch uint64
	// mark is sized to the graph order at machine construction (node IDs
	// are dense in [0, n)) — a slice rather than a [graph.MaxNodes]array so
	// machines on small graphs don't carry a 32 KB scratch block under the
	// graph4096 build.
	mark []uint64
}

// markShift leaves room for positions up to 2*MaxNodes+1 in the largest
// build dimension (4096 nodes: 8193 < 1<<15; redundant paths are
// concatenations of two simple paths and longer walks are rejected up
// front). Epochs occupy the remaining 49 bits — no run gets near wrapping.
const markShift = 15

// analyze precomputes the extension test for storage; it reports false when
// storage itself is not redundant (in which case no extension is either,
// since prefixes of redundant walks are redundant).
func (e *redundantExt) analyze(storage graph.Path) bool {
	if len(storage) > 2*graph.MaxNodes {
		// No redundant path is longer than two simple paths; rejecting here
		// also keeps positions within the mark word's low bits.
		return false
	}
	e.n = len(storage)

	// Pass 1: a = length of the longest all-distinct prefix.
	e.epoch++
	tag := e.epoch << markShift
	e.a = e.n
	for i, v := range storage {
		if e.mark[v]>>markShift == e.epoch {
			e.a = i
			break
		}
		e.mark[v] = tag
	}
	// Pass 2: b = start of the longest all-distinct suffix.
	e.epoch++
	tag = e.epoch << markShift
	e.b = 0
	for i := e.n - 1; i >= 0; i-- {
		v := storage[i]
		if e.mark[v]>>markShift == e.epoch {
			e.b = i + 1
			break
		}
		e.mark[v] = tag
	}
	if e.b > e.a-1 {
		return false
	}
	// Pass 3: last occurrence index of every node on the walk.
	e.epoch++
	tag = e.epoch << markShift
	for i, v := range storage {
		e.mark[v] = tag | uint64(i+1)
	}
	return true
}

// lastIdx returns the last occurrence of w in the analyzed walk, or -1.
func (e *redundantExt) lastIdx(w int) int {
	if e.mark[w]>>markShift != e.epoch {
		return -1
	}
	return int(e.mark[w]&(1<<markShift-1)) - 1
}

// extendable reports whether appending w keeps the walk redundant.
func (e *redundantExt) extendable(w int) bool {
	last := e.lastIdx(w)
	a := e.a
	if e.a == e.n && last < 0 { // fully distinct walk, new node
		a = e.n + 1
	}
	b := e.b
	if last+1 > b {
		b = last + 1
	}
	return b <= a-1
}

// TestAnalyzeRedundantMatchesDefinition cross-validates the O(1) relay
// extension test against the direct IsRedundant definition over random
// walks — the incremental prefix/suffix bound arithmetic is hand-derived,
// so it gets exhaustive scrutiny.
func TestAnalyzeRedundantMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// One shared scratch across all trials exercises the epoch tagging the
	// way a machine does: no clearing between deliveries. mark is sized for
	// the largest node ID the trials use, as NewMachine sizes it for the
	// graph order.
	ext := redundantExt{mark: make([]uint64, 6)}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(10)
		p := make(graph.Path, n)
		for i := range p {
			p[i] = rng.Intn(5)
		}
		ok := ext.analyze(p)
		if ok != p.IsRedundant() {
			t.Fatalf("analyze(%v) ok=%v, IsRedundant=%v", p, ok, p.IsRedundant())
		}
		if !ok {
			continue
		}
		for w := 0; w < 6; w++ {
			got := ext.extendable(w)
			want := p.Append(w).IsRedundant()
			if got != want {
				t.Fatalf("extendable(%v, %d) = %v, want %v", p, w, got, want)
			}
		}
	}
}

// comparatorFilterAndAverage is Filter-and-Average as it was written before
// the counting sort: M_v's entries in rank order, sorted by a comparator on
// (value, rank), then the longest f-coverable prefix and suffix trimmed and
// the midpoint of the remaining extremes returned. It returns the sorted
// order and the midpoint.
func comparatorFilterAndAverage(m *Machine, rs *roundState) ([]int32, float64) {
	tbl := m.pre.paths
	order := make([]int32, 0, len(tbl.ByRank))
	for _, e := range tbl.ByRank {
		if rs.has[e] {
			order = append(order, e)
		}
	}
	rank := tbl.Rank
	slices.SortFunc(order, func(a, b int32) int {
		if va, vb := rs.vals[a], rs.vals[b]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return int(rank[a] - rank[b])
	})
	sorted := slices.Clone(order)
	lo := m.coverablePrefix(tbl.Set, order)
	slices.Reverse(order)
	hi := m.coverablePrefix(tbl.Set, order)
	if lo+hi >= len(order) {
		return sorted, rs.x
	}
	return sorted, (rs.vals[order[len(order)-1-lo]] + rs.vals[order[hi]]) / 2
}
