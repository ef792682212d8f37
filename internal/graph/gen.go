package graph

import (
	"fmt"
	"math/rand"
)

// Clique returns the complete digraph on n nodes (every ordered pair joined).
func Clique(n int) *Graph {
	b := newBulk(n, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				b.add(u, v)
			}
		}
	}
	return b.finish(fmt.Sprintf("clique%d", n))
}

// DirectedCycle returns the cycle 0 -> 1 -> ... -> n-1 -> 0; on one node
// that is the node alone, the edge set having no self-loops.
func DirectedCycle(n int) *Graph {
	b := newBulk(n, n)
	for u := 0; u < n; u++ {
		if v := (u + 1) % n; v != u {
			b.add(u, v)
		}
	}
	return b.finish(fmt.Sprintf("cycle%d", n))
}

// Wheel returns the (bidirected) wheel W_k: hub node 0 joined to every rim
// node, plus the rim cycle 1..k. W_4 (n = 5) is minimally 3-connected and is
// our stand-in for the paper's Figure 1(a): n > 3f and κ(G) > 2f hold for
// f = 1, and removing any single edge breaks κ(G) > 2f.
func Wheel(k int) *Graph {
	b := newBulk(k+1, 4*k)
	for i := 1; i <= k; i++ {
		b.both(0, i)
		b.both(i, i%k+1)
	}
	return b.finish(fmt.Sprintf("wheel%d", k))
}

// Fig1a returns the Figure 1(a) stand-in graph (see DESIGN.md fidelity
// note 6): the wheel W_4 as a bidirected digraph, n = 5.
func Fig1a() *Graph {
	return Wheel(4).SetName("fig1a")
}

// Fig1b returns the Figure 1(b) graph: two cliques of 7 nodes each plus
// eight directed cross edges. Nodes 0..6 are v1..v7 (clique K1) and nodes
// 7..13 are w1..w7 (clique K2). Cross edges: v_i -> w_i for i = 1..4 and
// w_i -> v_i for i = 4..7, so only the pair (v4, w4) carries a bidirectional
// bridge. The benchmark suite verifies exhaustively that this graph
// satisfies 3-reach for f = 2 while v1 and w1 are joined by only 2f = 4
// vertex-disjoint paths (all-pair reliable message transmission impossible).
func Fig1b() *Graph {
	g := New(14)
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			if u != v {
				g.MustAddEdge(u, v)
				g.MustAddEdge(u+7, v+7)
			}
		}
	}
	for i := 0; i < 4; i++ { // v1->w1 .. v4->w4
		g.MustAddEdge(i, i+7)
	}
	for i := 3; i < 7; i++ { // w4->v4 .. w7->v7
		g.MustAddEdge(i+7, i)
	}
	return g.SetName("fig1b")
}

// Fig1bAnalog returns the scaled-down analog of Figure 1(b) used for
// end-to-end BW executions (f = 1): two cliques of 4 plus four cross edges
// with pairwise-disjoint endpoints. Nodes 0..3 are v1..v4, nodes 4..7 are
// w1..w4. Cross edges: v1->w1, v2->w2 (K1 to K2) and w3->v3, w4->v4 (K2 to
// K1). The condition checker verifies 3-reach for f = 1, and v1-w1 are
// joined by only 2f = 2 disjoint paths.
func Fig1bAnalog() *Graph {
	g := New(8)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				g.MustAddEdge(u, v)
				g.MustAddEdge(u+4, v+4)
			}
		}
	}
	g.MustAddEdge(0, 4) // v1 -> w1
	g.MustAddEdge(1, 5) // v2 -> w2
	g.MustAddEdge(6, 2) // w3 -> v3
	g.MustAddEdge(7, 3) // w4 -> v4
	return g.SetName("fig1b-analog")
}

// Circulant returns the circulant digraph on n nodes with edges
// i -> (i+d) mod n for every offset d. With offsets 1..2f+1 these graphs
// satisfy 3-reach for small f and grow sparsely, which makes them the
// scalability family for the benchmarks.
func Circulant(n int, offsets ...int) *Graph {
	b := newBulk(n, n*len(offsets))
	for u := 0; u < n; u++ {
		for _, d := range offsets {
			v := ((u+d)%n + n) % n
			if v != u {
				b.add(u, v)
			}
		}
	}
	return b.finish(fmt.Sprintf("circulant%d", n))
}

// RandomDigraph returns a digraph where each ordered pair (u, v), u != v, is
// an edge independently with probability p, using the given seed.
func RandomDigraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := newBulk(n, 0)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.add(u, v)
			}
		}
	}
	return b.finish(fmt.Sprintf("random%d", n))
}

// RandomUndirected returns a bidirected digraph where each unordered pair is
// joined (in both directions) independently with probability p.
func RandomUndirected(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := newBulk(n, 0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.both(u, v)
			}
		}
	}
	return b.finish(fmt.Sprintf("randomU%d", n))
}

// Torus returns the bidirected rows x cols torus: node r*cols+c is joined
// (in both directions) to its four grid neighbors with wraparound. The
// standard sparse mesh family for the scale experiments — constant degree,
// diameter (rows+cols)/2.
func Torus(rows, cols int) *Graph {
	b := newBulk(rows*cols, 4*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Adding the "forward" neighbor in both directions covers every
			// torus edge exactly once; the duplicates on 2-cycles (rows or
			// cols == 2) are no-ops, and a side of 1 has no forward neighbor.
			u := r*cols + c
			for _, v := range [2]int{r*cols + (c+1)%cols, (r+1)%rows*cols + c} {
				if v != u {
					b.both(u, v)
				}
			}
		}
	}
	return b.finish(fmt.Sprintf("torus%dx%d", rows, cols))
}

// KRegular returns a random k-out-regular digraph: every node gets exactly k
// distinct out-neighbors drawn uniformly without replacement, using the
// given seed. In-degrees are k only in expectation. Requires 1 <= k < n.
func KRegular(n, k int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := newBulk(n, n*k)
	others := make([]int, n-1)
	for u := 0; u < n; u++ {
		j := 0
		for v := 0; v < n; v++ {
			if v != u {
				others[j] = v
				j++
			}
		}
		// Partial Fisher-Yates: the first k entries are a uniform sample.
		for i := 0; i < k; i++ {
			swap := i + rng.Intn(len(others)-i)
			others[i], others[swap] = others[swap], others[i]
			b.add(u, others[i])
		}
	}
	return b.finish(fmt.Sprintf("kregular%d", n))
}

// Expander returns a d-regular digraph built as the union of d random
// permutations without fixed points or duplicate edges (each permutation is
// resampled per offending node until clean) — a standard construction whose
// instances are expanders with high probability. Every node has out-degree
// and in-degree exactly d. Requires 1 <= d < n.
func Expander(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := newBulk(n, n*d)
	for layer := 0; layer < d; layer++ {
		perm := rng.Perm(n)
		// Repair fixed points and edges duplicating earlier layers by random
		// transpositions: whole-permutation rejection has acceptance ~e^-d,
		// while repairs converge in a handful of swaps when d << n.
		for attempts := 0; ; attempts++ {
			bad := -1
			for u, v := range perm {
				if u == v || b.g.HasEdge(u, v) {
					bad = u
					break
				}
			}
			if bad < 0 {
				break
			}
			if attempts > 100*(n+1) {
				panic(fmt.Sprintf("graph: Expander(%d, %d, %d): could not place layer %d", n, d, seed, layer))
			}
			j := rng.Intn(n)
			perm[bad], perm[j] = perm[j], perm[bad]
		}
		for u, v := range perm {
			b.add(u, v)
		}
	}
	return b.finish(fmt.Sprintf("expander%d", n))
}
