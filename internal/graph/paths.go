package graph

import (
	"errors"
	"fmt"
)

// Path is a directed walk represented by its node sequence. Path{v} is the
// trivial path at v. The paper's propagation paths are "redundant paths":
// concatenations of at most two simple paths (Section 3), so their length is
// bounded by 2n.
type Path []int

// Init returns the initial node of the path.
func (p Path) Init() int { return p[0] }

// Key encodes the path as a compact string usable as a map key: two
// big-endian bytes per node (IDs are below MaxNodes = 1024, so two bytes
// suffice). Keys compare lexicographically in the same order as the node
// sequences they encode, the order a PathTable ranks its entries in.
func (p Path) Key() string {
	b := make([]byte, 2*len(p))
	for i, v := range p {
		b[2*i] = byte(v >> 8)
		b[2*i+1] = byte(v)
	}
	return string(b)
}

// Append returns p with v appended (a fresh slice; p is not modified).
func (p Path) Append(v int) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = v
	return out
}

// IsSimple reports whether the path repeats no node.
func (p Path) IsSimple() bool {
	var seen Set
	for _, v := range p {
		if seen.Has(v) {
			return false
		}
		seen = seen.Add(v)
	}
	return true
}

// IsRedundant reports whether the path is a concatenation p1 || p2 of two
// simple paths (one possibly trivial) — the paper's redundant path
// (Section 3). Every simple path is redundant.
func (p Path) IsRedundant() bool {
	if len(p) == 0 {
		return false
	}
	// a = length of the longest all-distinct prefix; prefixes p[:i+1] are
	// simple iff i+1 <= a.
	a := len(p)
	var seen Set
	for i, v := range p {
		if seen.Has(v) {
			a = i
			break
		}
		seen = seen.Add(v)
	}
	// b = start of the longest all-distinct suffix; suffixes p[i:] are
	// simple iff i >= b.
	b := 0
	seen = EmptySet
	for i := len(p) - 1; i >= 0; i-- {
		if seen.Has(p[i]) {
			b = i + 1
			break
		}
		seen = seen.Add(p[i])
	}
	// Redundant iff some split index i has p[:i+1] and p[i:] both simple:
	// i <= a-1 and i >= b.
	return b <= a-1
}

// String renders the path as "<a b c>".
func (p Path) String() string {
	s := "<"
	for i, v := range p {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + ">"
}

// ErrPathBudget is returned when an enumeration would exceed its budget.
// Callers use it to refuse experiment configurations whose redundant-path
// floods would be astronomically large (see DESIGN.md fidelity note 7).
var ErrPathBudget = errors.New("graph: path enumeration budget exceeded")

// SimplePathsTo enumerates every simple path that ends at v and avoids excl,
// including the trivial path <v>. It returns ErrPathBudget if more than
// budget paths exist (budget <= 0 means unlimited).
func (g *Graph) SimplePathsTo(v int, excl Set, budget int) ([]Path, error) {
	if excl.Has(v) {
		return nil, nil
	}
	var out []Path
	// Backward DFS from v, extending at the front.
	cur := Path{v}
	var rec func(front int, visited Set) error
	rec = func(front int, visited Set) error {
		p := make(Path, len(cur))
		copy(p, cur)
		out = append(out, p)
		if budget > 0 && len(out) > budget {
			return ErrPathBudget
		}
		var err error
		g.inMask[front].Minus(visited).Minus(excl).ForEach(func(w int) bool {
			cur = append(Path{w}, cur...)
			err = rec(w, visited.Add(w))
			cur = cur[1:]
			return err == nil
		})
		return err
	}
	if err := rec(v, SetOf(v)); err != nil {
		return nil, err
	}
	return out, nil
}

// RedundantWalk is the visitor's view of one path of WalkRedundantPathsTo.
type RedundantWalk struct {
	// ID numbers the visits in order from 0, the trivial path <v>; Suffix
	// is the ID of the path without its first vertex, -1 for <v>.
	ID, Suffix int32
	Head       int  // the first vertex
	Simple     bool // no vertex repeats

	// The reversed walk r (from v, grown by appending in-neighbors):
	// n = len(r); a = length of its longest all-distinct prefix (== n while
	// the walk is fully distinct, frozen at the first repeat); b = start of
	// its longest all-distinct suffix; first and last hold each vertex's
	// first and last occurrence depth + 1 (0 = absent). r is redundant iff
	// b <= a-1 (Path.IsRedundant).
	n, a, b     int
	first, last []int32
	simple      bool // the walk visits simple paths only
}

// ExtendsBy reports whether the visited path with x appended is still a
// path the walk visits: for the simple walk, whether x is not on it; else
// whether it is still redundant — the forward reading of the reversed-walk
// state: the path's longest all-distinct prefix has n-b vertices, its
// longest all-distinct suffix starts at n-a, and x last occurs at
// n-first[x].
func (w *RedundantWalk) ExtendsBy(x int) bool {
	if w.simple {
		return w.first[x] == 0
	}
	a, b := w.n-w.b, w.n-w.a
	if f := int(w.first[x]); f == 0 {
		if a == w.n {
			a++
		}
	} else if w.n-f+1 > b {
		b = w.n - f + 1
	}
	return b <= a-1
}

// WalkRedundantPathsTo visits every distinct redundant path ending at v
// that avoids excl — the set {p in Pr_{V\excl} : ter(p) = v} of Definition
// 9 — or, with simple, only the simple ones, once each, a path after its
// suffixes, and returns how many there are, or ErrPathBudget if more than
// budget (budget <= 0 means unlimited). The visitor's argument is valid
// during the call only.
//
// It never materializes a path: it walks the reversed graph depth-first
// from v, extending one node at a time with the O(1) redundancy test. This
// works because the reverse of a redundant path is redundant (reversing a
// concatenation of two simple paths yields another), and redundant walks
// are closed under taking suffixes, so a failed extension prunes the whole
// subtree exactly; simple paths are suffix-closed too, and the simple walk
// also skips an extension that repeats a vertex. Each visit costs
// O(in-degree) — the form the path tables (PathTables) are built in at
// scale, where spelling every path out would cost gigabytes.
func (g *Graph) WalkRedundantPathsTo(v int, excl Set, simple bool, budget int, visit func(*RedundantWalk)) (int, error) {
	if excl.Has(v) {
		return 0, nil
	}
	w := &RedundantWalk{n: 1, a: 1, first: make([]int32, g.n), last: make([]int32, g.n), simple: simple}
	w.first[v], w.last[v] = 1, 1
	count := 0
	var rec func(front int, suffix int32) error
	rec = func(front int, suffix int32) error {
		if budget > 0 && count >= budget {
			return ErrPathBudget
		}
		id := int32(count)
		count++
		w.ID, w.Suffix, w.Head, w.Simple = id, suffix, front, w.a == w.n
		visit(w)
		for _, u := range g.in[front] {
			if excl.Has(u) || simple && w.last[u] != 0 {
				continue
			}
			na := w.a
			if w.a == w.n && w.last[u] == 0 {
				na = w.n + 1
			}
			nb := max(w.b, int(w.last[u]))
			if nb > na-1 {
				continue // not redundant; no extension can be either
			}
			a, b, first, last := w.a, w.b, w.first[u], w.last[u]
			w.n++
			w.a, w.b, w.last[u] = na, nb, int32(w.n)
			if first == 0 {
				w.first[u] = int32(w.n)
			}
			err := rec(u, id)
			w.n--
			w.a, w.b, w.first[u], w.last[u] = a, b, first, last
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(v, -1); err != nil {
		return 0, err
	}
	return count, nil
}

// CountRedundantPathsTo returns the number of distinct redundant paths
// ending at v avoiding excl, or ErrPathBudget if it exceeds budget
// (budget <= 0 means unlimited).
func (g *Graph) CountRedundantPathsTo(v int, excl Set, budget int) (int, error) {
	return g.WalkRedundantPathsTo(v, excl, false, budget, func(*RedundantWalk) {})
}
