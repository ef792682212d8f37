package graph

import "slices"

// bulk is the generators' construction path: add records each new edge in
// the masks — which therefore answer HasEdge while the generator is still
// running — and in an edge list, and finish builds every adjacency list
// from that list at once. AddEdge pays a search, a shift and often a
// reallocation per edge, which on a 1024-node torus is most of the build.
type bulk struct {
	g     *Graph
	edges [][2]int32
}

// newBulk starts a graph on n nodes; edges is a capacity hint.
func newBulk(n, edges int) *bulk {
	return &bulk{g: New(n), edges: make([][2]int32, 0, edges)}
}

// add records the directed edge (u, v); a duplicate is a no-op. Like
// MustAddEdge it panics on an endpoint out of range or a self-loop:
// generators compute their endpoints, so either is a bug.
func (b *bulk) add(u, v int) {
	g := b.g
	if err := g.checkEdge(u, v); err != nil {
		panic(err)
	}
	if !g.outMask[u].Insert(v) {
		return
	}
	g.inMask[v].Insert(u)
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// both records (u, v) and (v, u).
func (b *bulk) both(u, v int) {
	b.add(u, v)
	b.add(v, u)
}

// finish builds the adjacency lists and returns the graph. Every list is
// carved from one of two backing arrays with its capacity cut to its
// length, so a later AddEdge reallocates the list it grows instead of
// running into its neighbour's.
func (b *bulk) finish(name string) *Graph {
	g := b.g
	g.edges = len(b.edges)
	deg := make([]int32, 2*g.n) // out-degrees, then in-degrees
	for _, e := range b.edges {
		deg[e[0]]++
		deg[g.n+int(e[1])]++
	}
	outs, ins := make([]int, g.edges), make([]int, g.edges)
	for u := 0; u < g.n; u++ {
		// An isolated end stays nil, as New left it and AddEdge would.
		if d := int(deg[u]); d > 0 {
			g.out[u], outs = outs[:0:d], outs[d:]
		}
		if d := int(deg[g.n+u]); d > 0 {
			g.in[u], ins = ins[:0:d], ins[d:]
		}
	}
	for _, e := range b.edges {
		g.out[e[0]] = append(g.out[e[0]], int(e[1]))
		g.in[e[1]] = append(g.in[e[1]], int(e[0]))
	}
	for u := 0; u < g.n; u++ {
		slices.Sort(g.out[u])
		slices.Sort(g.in[u])
	}
	g.name = name
	return g
}
