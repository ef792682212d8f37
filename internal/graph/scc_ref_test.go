package graph

// Tarjan's SCCs over a materialized graph: the reference
// TestSourceComponentsMatchTarjan compares the masked SourceComponents
// against. Condition checkers never run it — rebuilding G − A and walking
// slices per removal set was the slow path (ISSUE 24's prototype: 2.4x the
// table it was meant to replace).

// SCCs returns the strongly connected components of the graph as node sets
// in reverse topological order of the condensation (every edge between
// components points from a later component to an earlier one in the returned
// slice). Tarjan's algorithm, iterative to avoid deep recursion.
func (g *Graph) SCCs() []Set {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		sccs    []Set
		counter int
	)

	type frame struct {
		v    int
		next int // index into g.out[v]
	}

	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.next < len(g.out[v]) {
				w := g.out[v][f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp Set
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = comp.Add(w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}

// CondensationSources returns the SCCs with no incoming edges from other
// SCCs (the source components of the condensation DAG).
func (g *Graph) CondensationSources() []Set {
	sccs := g.SCCs()
	compOf := make([]int, g.n)
	for i, c := range sccs {
		c.ForEach(func(v int) bool {
			compOf[v] = i
			return true
		})
	}
	hasIncoming := make([]bool, len(sccs))
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			if compOf[u] != compOf[v] {
				hasIncoming[compOf[v]] = true
			}
		}
	}
	var out []Set
	for i, c := range sccs {
		if !hasIncoming[i] {
			out = append(out, c)
		}
	}
	return out
}
