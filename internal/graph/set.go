// Package graph provides the directed-graph substrate used throughout the
// repository: bitmask node sets, adjacency structures, reachability and
// source components, vertex-disjoint paths (Menger via max-flow),
// simple/redundant path enumeration with explicit budgets, generators for
// the paper's example graphs, and text serialization.
//
// Node identifiers are dense ints in [0, n) with n <= MaxNodes so that node
// sets fit in a fixed, comparable array of machine words.
package graph

import (
	"math/bits"
	"strconv"
	"strings"
)

// MaxNodes is the largest supported graph order, a build dimension: the
// default build supports 1024 nodes (16-word Sets), and the graph4096 build
// tag widens Sets to 64 words for n up to 4096. See dim_default.go /
// dim_4096.go. Keeping the dimension a compile-time constant preserves
// what the Set representation is load-bearing for: fixed-size multiword
// bitmasks are value types, comparable and usable as map keys, so the
// exponential condition checkers (which enumerate millions of node subsets)
// stay allocation-free — and small-graph builds pay no 64-word bitmask tax.

// setWords is the number of 64-bit words backing a Set.
const setWords = MaxNodes / 64

// Set is a set of node IDs represented as a multiword bitmask. The zero
// value is the empty set and is ready to use. Set is a comparable value
// type: == compares contents and Sets index maps directly.
type Set [setWords]uint64

// EmptySet is the set containing no nodes.
var EmptySet Set

// SetOf builds a set from the given node IDs.
func SetOf(nodes ...int) Set {
	var s Set
	for _, v := range nodes {
		s[uint(v)>>6] |= 1 << (uint(v) & 63)
	}
	return s
}

// FullSet returns the set {0, ..., n-1}.
func FullSet(n int) Set {
	var s Set
	if n <= 0 {
		return s
	}
	if n > MaxNodes {
		n = MaxNodes
	}
	for w := 0; w < n>>6; w++ {
		s[w] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s[n>>6] = 1<<rem - 1
	}
	return s
}

// Add returns s with node v included.
func (s Set) Add(v int) Set {
	s[uint(v)>>6] |= 1 << (uint(v) & 63)
	return s
}

// Remove returns s with node v excluded.
func (s Set) Remove(v int) Set {
	s[uint(v)>>6] &^= 1 << (uint(v) & 63)
	return s
}

// Has reports whether v is a member of s.
func (s Set) Has(v int) bool {
	return s[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Union returns the union of s and t.
func (s Set) Union(t Set) Set {
	for w := range s {
		s[w] |= t[w]
	}
	return s
}

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set {
	for w := range s {
		s[w] &= t[w]
	}
	return s
}

// Minus returns the set difference s \ t.
func (s Set) Minus(t Set) Set {
	for w := range s {
		s[w] &^= t[w]
	}
	return s
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == EmptySet }

// Contains reports whether every member of t is also in s.
func (s Set) Contains(t Set) bool {
	for w := range s {
		if t[w]&^s[w] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one member.
func (s Set) Intersects(t Set) bool {
	for w := range s {
		if s[w]&t[w] != 0 {
			return true
		}
	}
	return false
}

// Members returns the node IDs in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for w, m := range s {
		base := w << 6
		for m != 0 {
			out = append(out, base+bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
	return out
}

// ForEach calls fn for every member in ascending order. It stops early if fn
// returns false.
func (s Set) ForEach(fn func(v int) bool) {
	for w, m := range s {
		base := w << 6
		for m != 0 {
			if !fn(base + bits.TrailingZeros64(m)) {
				return
			}
			m &= m - 1
		}
	}
}

// Min returns the smallest member, or -1 if the set is empty.
func (s Set) Min() int {
	for w, m := range s {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// String renders the set as "{a,b,c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(v))
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// PathSet returns the set of nodes appearing on the path.
func PathSet(path []int) Set {
	var s Set
	for _, v := range path {
		s[uint(v)>>6] |= 1 << (uint(v) & 63)
	}
	return s
}

// Subsets enumerates every subset of universe with at most k members, in a
// deterministic order (lexicographic DFS over the ascending member list),
// and calls fn for each; a negative k admits no subset, not even the empty
// one. Enumeration stops early if fn returns false.
func Subsets(universe Set, k int, fn func(Set) bool) {
	if k < 0 {
		return
	}
	members := universe.Members()
	if k > len(members) {
		k = len(members)
	}
	if !fn(EmptySet) {
		return
	}
	// chosen holds indices into members.
	chosen := make([]int, 0, k)
	var rec func(start int, cur Set) bool
	rec = func(start int, cur Set) bool {
		if len(chosen) == cap(chosen) {
			return true
		}
		for i := start; i < len(members); i++ {
			next := cur.Add(members[i])
			chosen = append(chosen, i)
			if !fn(next) {
				return false
			}
			if !rec(i+1, next) {
				return false
			}
			chosen = chosen[:len(chosen)-1]
		}
		return true
	}
	if k > 0 {
		rec(0, EmptySet)
	}
}

// SubsetsOfSize enumerates subsets of universe with exactly k members.
func SubsetsOfSize(universe Set, k int, fn func(Set) bool) {
	Subsets(universe, k, func(s Set) bool {
		if s.Count() != k {
			return true
		}
		return fn(s)
	})
}

// CountSubsets returns the number of subsets of a set with size c that have
// at most k members: sum_{i=0..k} C(c, i).
func CountSubsets(c, k int) int {
	total := 0
	for i := 0; i <= k && i <= c; i++ {
		total += binomial(c, i)
	}
	return total
}

// SubsetsWithin reports whether a set of n elements has at most budget
// subsets of at most m members, without overflowing on the way to "no".
func SubsetsWithin(n, m, budget int) bool {
	total, term := 0, 1
	for i := 0; i <= m && i <= n; i++ {
		if total += term; total > budget {
			return false
		}
		term = term * (n - i) / (i + 1)
	}
	return true
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
	}
	return res
}
