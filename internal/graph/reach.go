package graph

import "math/bits"

// bfsMasked runs the word-level BFS shared by Descendants and Ancestors
// over the given adjacency masks. The loops index the multiword sets
// directly and stop at nw — the number of words a graph of this order can
// populate — instead of going through the value-receiver algebra over all
// 16 words: these searches run once per (node, removal set) in the
// exponential condition checkers, mostly on graphs of one word, where the
// fixed-size method forms cost ~16x the useful work.
func bfsMasked(masks []Set, v int, excl Set, nw int) Set {
	var seen Set
	seen[uint(v)>>6] = 1 << (uint(v) & 63)
	frontier := seen
	for {
		var next Set
		for fw := 0; fw < nw; fw++ {
			m := frontier[fw]
			for m != 0 {
				u := fw<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				adj := &masks[u]
				for w := 0; w < nw; w++ {
					next[w] |= adj[w] &^ seen[w] &^ excl[w]
				}
			}
		}
		var nonzero uint64
		for w := 0; w < nw; w++ {
			seen[w] |= next[w]
			nonzero |= next[w]
		}
		if nonzero == 0 {
			return seen
		}
		frontier = next
	}
}

// words returns how many Set words a graph of this order populates.
func (g *Graph) words() int { return (g.n + 63) >> 6 }

// Descendants returns the set of nodes reachable from v (including v) by
// directed paths that avoid every node in excl entirely. If v itself is in
// excl the result is empty.
func (g *Graph) Descendants(v int, excl Set) Set {
	if excl.Has(v) {
		return EmptySet
	}
	return bfsMasked(g.outMask, v, excl, g.words())
}

// Ancestors returns the set of nodes that can reach v (including v) by
// directed paths avoiding every node in excl. If v is in excl the result is
// empty.
func (g *Graph) Ancestors(v int, excl Set) Set {
	if excl.Has(v) {
		return EmptySet
	}
	return bfsMasked(g.inMask, v, excl, g.words())
}

// SourceComponents appends to dst the source components of G − excl: the
// strongly connected components of the subgraph induced by V \ excl that no
// edge enters from outside. Every reach set reach_v(excl) contains one, and
// a vertex inside one has exactly that component as its reach set — which
// lets the reach conditions (internal/cond) compare a few source components
// per removal set instead of one reach set per vertex.
//
// No graph is rebuilt and nothing is allocated per vertex: from an
// uncovered vertex the search climbs to one whose ancestors all lie among
// its descendants (its component is then its ancestor set, and a source),
// and marks that component's descendants covered. A strongly connected
// remainder costs two walks.
func (g *Graph) SourceComponents(excl Set, dst []Set) []Set {
	nw := g.words()
	uncovered := g.Nodes().Minus(excl)
	for v := uncovered.Min(); v >= 0; v = uncovered.Min() {
		for {
			anc := bfsMasked(g.inMask, v, excl, nw)
			desc := bfsMasked(g.outMask, v, excl, nw)
			if up := anc.Minus(desc); !up.Empty() {
				v = up.Min() // strictly upstream: its ancestor set is smaller
				continue
			}
			dst = append(dst, anc)
			uncovered = uncovered.Minus(desc)
			break
		}
	}
	return dst
}

// ReachSet implements Definition 2 of the paper: reach_v(F) is the set of
// nodes u outside F that have a directed path to v in the subgraph induced by
// V \ F. v itself is always a member (when v is not in F).
func (g *Graph) ReachSet(v int, f Set) Set {
	return g.Ancestors(v, f)
}

// DescendantsReduced returns the nodes reachable from v in the reduced graph
// G_{F1,F2} (Definition 5): outgoing edges of nodes in F1 ∪ F2 are removed,
// but those nodes remain valid targets.
func (g *Graph) DescendantsReduced(v int, f1, f2 Set) Set {
	rm := f1.Union(f2)
	nw := g.words()
	var seen Set
	seen[uint(v)>>6] = 1 << (uint(v) & 63)
	frontier := seen
	for {
		var next Set
		for fw := 0; fw < nw; fw++ {
			// Removed nodes have no outgoing edges; mask them out of the
			// frontier before expanding.
			m := frontier[fw] &^ rm[fw]
			for m != 0 {
				u := fw<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				adj := &g.outMask[u]
				for w := 0; w < nw; w++ {
					next[w] |= adj[w] &^ seen[w]
				}
			}
		}
		var nonzero uint64
		for w := 0; w < nw; w++ {
			seen[w] |= next[w]
			nonzero |= next[w]
		}
		if nonzero == 0 {
			return seen
		}
		frontier = next
	}
}

// SourceComponent implements Definition 6: the set of nodes in the reduced
// graph G_{F1,F2} that have directed paths to every node in V. The result is
// either empty or a strongly connected set.
func (g *Graph) SourceComponent(f1, f2 Set) Set {
	all := g.Nodes()
	var src Set
	for v := 0; v < g.n; v++ {
		if f1.Union(f2).Has(v) {
			continue // removed nodes have no outgoing edges; cannot reach all
		}
		if g.DescendantsReduced(v, f1, f2) == all {
			src = src.Add(v)
		}
	}
	return src
}

// StronglyConnectedWithin reports whether every ordered pair of nodes in s
// is connected by a directed path that stays inside s.
func (g *Graph) StronglyConnectedWithin(s Set) bool {
	if s.Count() <= 1 {
		return true
	}
	excl := g.Nodes().Minus(s)
	root := s.Min()
	if g.Descendants(root, excl) != s {
		return false
	}
	return g.Ancestors(root, excl) == s
}
