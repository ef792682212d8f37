package graph

// The generators as they were before bulk.go: one AddEdge per edge. They
// are the reference TestBulkMatchesAddEdge compares the bulk-built graphs
// against, endpoint for endpoint and random draw for random draw.

import (
	"fmt"
	"math/rand"
)

func refClique(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g.SetName(fmt.Sprintf("clique%d", n))
}

func refDirectedCycle(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		g.MustAddEdge(u, (u+1)%n)
	}
	return g.SetName(fmt.Sprintf("cycle%d", n))
}

func refWheel(k int) *Graph {
	g := New(k + 1)
	for i := 1; i <= k; i++ {
		if err := g.AddBoth(0, i); err != nil {
			panic(err)
		}
		if err := g.AddBoth(i, i%k+1); err != nil {
			panic(err)
		}
	}
	return g.SetName(fmt.Sprintf("wheel%d", k))
}

func refCirculant(n int, offsets ...int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for _, d := range offsets {
			v := ((u+d)%n + n) % n
			if v != u {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g.SetName(fmt.Sprintf("circulant%d", n))
}

func refRandomDigraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g.SetName(fmt.Sprintf("random%d", n))
}

func refRandomUndirected(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddBoth(u, v); err != nil {
					panic(err) // unreachable: endpoints valid by loop bounds
				}
			}
		}
	}
	return g.SetName(fmt.Sprintf("randomU%d", n))
}

func refTorus(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Adding the "forward" neighbor in both directions covers every
			// torus edge exactly once; duplicate AddBoth calls on 2-cycles
			// (rows or cols == 2) are no-ops.
			for _, nb := range [][2]int{{r, c + 1}, {r + 1, c}} {
				if v := id(nb[0], nb[1]); v != id(r, c) {
					if err := g.AddBoth(id(r, c), v); err != nil {
						panic(err) // unreachable: ids valid by construction
					}
				}
			}
		}
	}
	return g.SetName(fmt.Sprintf("torus%dx%d", rows, cols))
}

func refKRegular(n, k int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
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
			g.MustAddEdge(u, others[i])
		}
	}
	return g.SetName(fmt.Sprintf("kregular%d", n))
}

func refExpander(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for layer := 0; layer < d; layer++ {
		perm := rng.Perm(n)
		// Repair fixed points and edges duplicating earlier layers by random
		// transpositions: whole-permutation rejection has acceptance ~e^-d,
		// while repairs converge in a handful of swaps when d << n.
		for attempts := 0; ; attempts++ {
			bad := -1
			for u, v := range perm {
				if u == v || g.HasEdge(u, v) {
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
			g.MustAddEdge(u, v)
		}
	}
	return g.SetName(fmt.Sprintf("expander%d", n))
}

func refTwoCliquesBridged(k int, cross [][2]int) *Graph {
	g := New(2 * k)
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if u != v {
				g.MustAddEdge(u, v)
				g.MustAddEdge(u+k, v+k)
			}
		}
	}
	for _, e := range cross {
		g.MustAddEdge(e[0], e[1])
	}
	return g.SetName(fmt.Sprintf("twocliques%d", k))
}

// TwoCliquesBridged is the generic two-clique family behind Figure 1(b):
// cliques of size k on nodes 0..k-1 and k..2k-1, plus the given cross edges
// (pairs are (u, v) node IDs in the combined numbering).
func TwoCliquesBridged(k int, cross [][2]int) *Graph {
	b := newBulk(2*k, 2*k*(k-1)+len(cross))
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if u != v {
				b.add(u, v)
				b.add(u+k, v+k)
			}
		}
	}
	for _, e := range cross {
		b.add(e[0], e[1])
	}
	return b.finish(fmt.Sprintf("twocliques%d", k))
}
