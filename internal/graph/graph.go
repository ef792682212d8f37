package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a simple directed graph on nodes 0..n-1. Self-loops are rejected,
// matching the paper's model (every node can always message itself; the edge
// set E excludes self-loops). The zero value is not useful; construct with
// New.
//
// Graph is immutable after construction in all concurrent contexts: the
// simulator and the condition checkers share one Graph across goroutines and
// never mutate it. Mutating methods (AddEdge) are for build time only.
type Graph struct {
	n       int
	name    string
	out     [][]int
	in      [][]int
	outMask []Set
	inMask  []Set
	edges   int
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("graph: order %d outside [1,%d]", n, MaxNodes))
	}
	return &Graph{
		n:       n,
		out:     make([][]int, n),
		in:      make([][]int, n),
		outMask: make([]Set, n),
		inMask:  make([]Set, n),
	}
}

// ErrSelfLoop is returned when an edge (v, v) is added.
var ErrSelfLoop = errors.New("graph: self-loops are not allowed")

// ErrNodeRange is returned when an edge endpoint is out of range.
var ErrNodeRange = errors.New("graph: node id out of range")

// checkEdge reports why (u, v) cannot be an edge of g, if it cannot.
func (g *Graph) checkEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	return nil
}

// AddEdge inserts the directed edge (u, v). Duplicate insertions are no-ops.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.checkEdge(u, v); err != nil {
		return err
	}
	if g.outMask[u].Has(v) {
		return nil
	}
	g.out[u] = insertSorted(g.out[u], v)
	g.in[v] = insertSorted(g.in[v], u)
	g.outMask[u] = g.outMask[u].Add(v)
	g.inMask[v] = g.inMask[v].Add(u)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge for build-time literals; it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the directed edge (u, v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || !g.outMask[u].Has(v) {
		return
	}
	g.out[u] = removeSorted(g.out[u], v)
	g.in[v] = removeSorted(g.in[v], u)
	g.outMask[u] = g.outMask[u].Remove(v)
	g.inMask[v] = g.inMask[v].Remove(u)
	g.edges--
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return g.edges }

// Name returns the graph's display name.
func (g *Graph) Name() string { return g.name }

// SetName sets the graph's display name and returns the graph for chaining.
func (g *Graph) SetName(name string) *Graph {
	g.name = name
	return g
}

// HasEdge reports whether (u, v) is an edge; ids outside [0, n) are not
// endpoints of any. It reads the one word of u's out-set in place: Set.Has
// would copy the whole set per call.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.outMask[u][uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Out returns u's out-neighbors in ascending order. The caller must not
// modify the returned slice.
func (g *Graph) Out(u int) []int { return g.out[u] }

// In returns u's in-neighbors in ascending order. The caller must not modify
// the returned slice.
func (g *Graph) In(u int) []int { return g.in[u] }

// InSet returns u's in-neighborhood as a set.
func (g *Graph) InSet(u int) Set { return g.inMask[u] }

// Nodes returns the full node set.
func (g *Graph) Nodes() Set { return FullSet(g.n) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.name = g.name
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			c.MustAddEdge(u, v)
		}
	}
	return c
}

// Edges returns every directed edge as a (from, to) pair, ordered by from
// and then to.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// IsUndirected reports whether every edge has its reverse.
func (g *Graph) IsUndirected() bool {
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			if !g.outMask[v].Has(u) {
				return false
			}
		}
	}
	return true
}

// Reduced returns the paper's reduced graph G_{F1,F2} (Definition 5): same
// node set, with every outgoing edge of each node in F1 ∪ F2 removed.
// Incoming edges of those nodes are kept.
func (g *Graph) Reduced(f1, f2 Set) *Graph {
	rm := f1.Union(f2)
	c := New(g.n)
	c.name = g.name
	for u := 0; u < g.n; u++ {
		if rm.Has(u) {
			continue
		}
		for _, v := range g.out[u] {
			c.MustAddEdge(u, v)
		}
	}
	return c
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s(n=%d, m=%d)", name, g.n, g.edges)
}
