package cond

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the Tseng–Vaidya partition conditions CCS, CCA and
// BCS (Definitions 16–18), which Theorem 17 proves equivalent to 1-, 2- and
// 3-reach respectively. The test suite verifies those equivalences on
// exhaustive and randomized graph families (experiment E2).

// PartitionWitness records a violating partition.
type PartitionWitness struct {
	F, L, C, R graph.Set
}

// String renders the witness.
func (w PartitionWitness) String() string {
	return fmt.Sprintf("F=%s L=%s C=%s R=%s", w.F, w.L, w.C, w.R)
}

// incomingCount returns |N⁻(B) ∩ A|: the number of distinct nodes of A that
// are incoming neighbors of the set B (Definition 14's A -x-> B threshold).
func incomingCount(g *graph.Graph, a, b graph.Set) int {
	var nbrs graph.Set
	b.ForEach(func(v int) bool {
		nbrs = nbrs.Union(g.InSet(v))
		return true
	})
	return nbrs.Minus(b).Intersect(a).Count()
}

// forEachPartition3 enumerates all assignments of the nodes in universe to
// the three classes L, C, R with L and R nonempty, calling fn for each; it
// stops early when fn returns false.
func forEachPartition3(universe graph.Set, fn func(l, c, r graph.Set) bool) {
	members := universe.Members()
	n := len(members)
	if n == 0 {
		return
	}
	var rec func(i int, l, c, r graph.Set) bool
	rec = func(i int, l, c, r graph.Set) bool {
		if i == n {
			if l.Empty() || r.Empty() {
				return true
			}
			return fn(l, c, r)
		}
		v := members[i]
		if !rec(i+1, l.Add(v), c, r) {
			return false
		}
		if !rec(i+1, l, c.Add(v), r) {
			return false
		}
		return rec(i+1, l, c, r.Add(v))
	}
	rec(0, graph.EmptySet, graph.EmptySet, graph.EmptySet)
}

// CheckCCA verifies Definition 17 (condition CCA): for every partition
// L, C, R of V with L, R nonempty, either L∪C has f+1 incoming links into R
// or R∪C has f+1 incoming links into L.
func CheckCCA(g *graph.Graph, f int) (bool, *PartitionWitness) {
	return checkFPartition(g, 0, f+1) // no F is set aside: only the empty one
}

// checkFPartition is the shared engine for CCS, CCA and BCS: for every F with
// |F| <= f and every partition L, C, R of V \ F (L, R nonempty), one of the
// two incoming-neighbor thresholds must hold.
func checkFPartition(g *graph.Graph, f, threshold int) (bool, *PartitionWitness) {
	var w *PartitionWitness
	graph.Subsets(g.Nodes(), f, func(fset graph.Set) bool {
		forEachPartition3(g.Nodes().Minus(fset), func(l, c, r graph.Set) bool {
			if incomingCount(g, l.Union(c), r) >= threshold {
				return true
			}
			if incomingCount(g, r.Union(c), l) >= threshold {
				return true
			}
			w = &PartitionWitness{F: fset, L: l, C: c, R: r}
			return false
		})
		return w == nil
	})
	return w == nil, w
}

// CheckCCS verifies Definition 16 (condition CCS): for every partition
// F, L, C, R of V with |F| <= f and L, R nonempty, either L∪C -> R or
// R∪C -> L has at least one incoming link.
func CheckCCS(g *graph.Graph, f int) (bool, *PartitionWitness) {
	return checkFPartition(g, f, 1)
}

// CheckBCS verifies Definition 18 (condition BCS): like CCS but requiring
// f+1 incoming links — the tight condition for synchronous exact Byzantine
// consensus, shown by this paper to also be tight for asynchronous
// approximate Byzantine consensus (as 3-reach).
func CheckBCS(g *graph.Graph, f int) (bool, *PartitionWitness) {
	return checkFPartition(g, f, f+1)
}
