// Package cond implements every topological condition in the paper and the
// checkers that verify them on concrete graphs:
//
//   - reach sets (Definition 2) and the 1-/2-/3-reach conditions
//     (Definition 3), plus the general k-reach family (Definition 20),
//   - the partition conditions CCS, CCA and BCS of Tseng–Vaidya
//     (Definitions 16–18), proven equivalent to 1-/2-/3-reach in the
//     paper's Theorem 17 — the equivalence is verified computationally by
//     this repository's test suite,
//   - f-covers of path sets (Definition 4),
//   - reduced graphs and source components (Definitions 5–6) together with
//     the structural Theorems 5 and 12 used by the algorithm's proof.
//
// Checkers are exhaustive and exact.
package cond

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Witness describes a violation of a reach condition: the node pair (U, V)
// and the fault-set choices under which the reach sets fail to intersect.
// For 1-reach, F is the single fault set and Fu = Fv = F. For 2-reach, F is
// empty. For 3-reach all three sets are populated.
type Witness struct {
	U, V      int
	F, Fu, Fv graph.Set
}

// String renders the witness for diagnostics.
func (w Witness) String() string {
	return fmt.Sprintf("u=%d v=%d F=%s Fu=%s Fv=%s", w.U, w.V, w.F, w.Fu, w.Fv)
}

// RemovalU returns the full removal set on u's side (F ∪ Fu).
func (w Witness) RemovalU() graph.Set { return w.F.Union(w.Fu) }

// RemovalV returns the full removal set on v's side (F ∪ Fv).
func (w Witness) RemovalV() graph.Set { return w.F.Union(w.Fv) }

// sourceTable holds the source components of G−A for every removal set A of
// at most m vertices. Sets are ordered by size, then colexicographically, so
// a set's position is a sum of binomials (rank) and no set → index map is
// kept; of the sets themselves only the small ones the checker draws F and
// its extensions from are retained.
type sourceTable struct {
	width  int         // m+1, the row length of choose
	choose []int       // choose[v*width+i] = C(v, i)
	base   []int       // base[c] = number of sets with fewer than c members
	sets   []graph.Set // the sets of at most keep members, in table order
	start  []int32     // set r's sources are comps[start[r]:start[r+1]]
	comps  []graph.Set
}

func tabulate(g *graph.Graph, m, keep int) *sourceTable {
	n, w := g.N(), m+1
	t := &sourceTable{width: w, choose: make([]int, (n+1)*w), base: make([]int, m+2)}
	for v := 0; v <= n; v++ {
		t.choose[v*w] = 1
		for i := 1; i <= m && i <= v; i++ {
			t.choose[v*w+i] = t.choose[(v-1)*w+i-1] + t.choose[(v-1)*w+i]
		}
	}
	for c := 0; c <= m; c++ {
		t.base[c+1] = t.base[c] + t.choose[n*w+c]
	}
	t.sets = make([]graph.Set, 0, t.base[keep+1])
	t.start = make([]int32, 0, t.base[m+1]+1)
	t.comps = make([]graph.Set, 0, t.base[m+1])
	// colex extends s by every c-subset of {0..below-1}, largest member first.
	var colex func(below, c int, s graph.Set)
	colex = func(below, c int, s graph.Set) {
		if c == 0 {
			if len(t.sets) < cap(t.sets) {
				t.sets = append(t.sets, s)
			}
			t.start = append(t.start, int32(len(t.comps)))
			t.comps = g.SourceComponents(s, t.comps)
			return
		}
		for top := c - 1; top < below; top++ {
			colex(top, c-1, s.Add(top))
		}
	}
	for c := 0; c <= m; c++ {
		colex(n, c, graph.EmptySet)
	}
	t.start = append(t.start, int32(len(t.comps)))
	return t
}

// rank returns s's position in the table.
func (t *sourceTable) rank(s *graph.Set) int {
	r, c := 0, 0
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			c++
			r += t.choose[(w<<6+bits.TrailingZeros64(word))*t.width+c]
		}
	}
	return t.base[c] + r
}

// disjointSources returns a source component of the a-th set and one of the
// b-th that share no vertex, if there are two.
func (t *sourceTable) disjointSources(a, b int) (sa, sb *graph.Set, ok bool) {
	for i := t.start[a]; i < t.start[a+1]; i++ {
		for j := t.start[b]; j < t.start[b+1]; j++ {
			if !setsIntersect(&t.comps[i], &t.comps[j]) {
				return &t.comps[i], &t.comps[j], true
			}
		}
	}
	return nil, nil, false
}

// Check1Reach verifies Definition 3's 1-reach condition: for any F with
// |F| <= f and any u, v outside F, reach_u(F) ∩ reach_v(F) != ∅.
func Check1Reach(g *graph.Graph, f int) (bool, *Witness) { return CheckKReach(g, 1, f) }

// Check2Reach verifies Definition 3's 2-reach condition: for any u, v and
// any Fu (not containing u), Fv (not containing v) of size at most f,
// reach_v(Fv) ∩ reach_u(Fu) != ∅.
func Check2Reach(g *graph.Graph, f int) (bool, *Witness) { return CheckKReach(g, 2, f) }

// Check3Reach verifies Definition 3's 3-reach condition — the paper's tight
// condition for asynchronous Byzantine approximate consensus (Theorem 4).
func Check3Reach(g *graph.Graph, f int) (bool, *Witness) { return CheckKReach(g, 3, f) }

// setsIntersect is Set.Intersects through pointers: it runs once per pair
// of removal sets, and the method form copies two full multiword arrays per
// call.
func setsIntersect(a, b *graph.Set) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// CheckKReach verifies the general k-reach condition family (Definition 20)
// for k >= 1; k = 1, 2, 3 are Definition 3's conditions. The two sides
// remove F ∪ Fu and F ∪ Fv: F is shared, of at most f vertices when k is
// odd and empty when k is even, and Fu, Fv each gather ⌊k/2⌋ fault sets, so
// at most ⌊k/2⌋·f vertices.
//
// In G−A every reach set contains a source component of the condensation,
// and a vertex inside a source component has exactly that component as its
// reach set. So reach_u(A) ∩ reach_v(B) != ∅ for every u outside A and v
// outside B iff every source component of G−A meets every source component
// of G−B, and those — usually one per set — are what is compared, over the
// pairs the definition quantifies: for each F, every two removal sets that
// contain F and exceed it by at most ⌊k/2⌋·f vertices. A witness names the
// smallest members of two disjoint source components; for k = 1 it repeats
// the single fault set as Fu = Fv = F.
//
// Fidelity note: as printed, Definition 20 unions k fault sets per side,
// which does not specialize to Definition 3 (2-reach removes one set per
// side and 3-reach removes F ∪ Fv, i.e. two). We implement the family that
// does specialize — ⌈k/2⌉ sets of size at most f per side, with one of them
// shared between the two sides when k is odd. On a clique this family is
// equivalent to n > k·f for every k, matching the paper's Appendix A
// remarks; the printed form would give n > 2⌈k/2⌉·f instead.
func CheckKReach(g *graph.Graph, k, f int) (bool, *Witness) {
	if k < 0 || f < 0 {
		return true, nil // no fault sets to quantify over
	}
	shared, rest := k%2*f, k/2*f
	t := tabulate(g, shared+rest, max(shared, rest))
	type member struct{ ext, rank int } // sets[ext] added to F is the set at rank
	group := make([]member, 0, t.base[rest+1])
	for _, fs := range t.sets[:t.base[shared+1]] {
		group = group[:0]
		for e := range t.sets[:t.base[rest+1]] {
			if !setsIntersect(&fs, &t.sets[e]) {
				a := fs.Union(t.sets[e])
				group = append(group, member{e, t.rank(&a)})
			}
		}
		for i, a := range group {
			for _, b := range group[i:] {
				if sa, sb, ok := t.disjointSources(a.rank, b.rank); ok {
					w := &Witness{U: sa.Min(), V: sb.Min(), F: fs, Fu: t.sets[a.ext], Fv: t.sets[b.ext]}
					if k == 1 {
						w.Fu, w.Fv = fs, fs
					}
					return false, w
				}
			}
		}
	}
	return true, nil
}
