package bw

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/graph"
	"repro/internal/weakcache"
)

// plan is the graph-derived half of a Proto: every table the machines
// consult that depends only on (G, F) and not on inputs, seeds or messages.
// It numbers what the round state would otherwise key by value — fault sets
// by their index in faultSets, source components by their index in comps,
// an origin's required FIFO paths 0..k-1 — so that per-delivery work is
// integer indexing, and it holds no per-run state, so one plan serves every
// execution on the same (G, F): every Proto whose graph has the same content
// and whose F and budget match finds it in plans. Safe for concurrent use;
// what it builds lazily (node contexts, covers) is built once.
type plan struct {
	// g is the path tables' graph, of the same content as every Proto's
	// that shares the plan.
	g *graph.Graph
	f int
	// faultSets enumerates every F ⊆ V with |F| <= f in a deterministic
	// order; one parallel thread per member of this list runs at each node
	// (restricted to sets not containing the node itself). A COMPLETE tag is
	// referred to by its index in this list everywhere past validation.
	faultSets []graph.Set
	// words is how many 64-bit words of a graph.Set the graph's order
	// occupies. Sets built from validated paths carry no bits beyond it, so
	// the pointer-form set operations below stop there.
	words int
	// seqCap is the number of fault sets not containing a given node — the
	// same for every node — and so the most COMPLETE floods (one per
	// thread) an honest origin sends in one round.
	seqCap int
	// tagOrder lists fault-set indices in compareSets order; tagIndex
	// binary-searches it.
	tagOrder []int32

	// comps are the distinct source components S_{Fi,Fj} (Definition 6);
	// srcComp[i*T+j] indexes the one for fault sets i and j.
	comps   []sourceComp
	srcComp []int32
	// clauses[i] is the Algorithm 2 obligation list of a COMPLETE tagged
	// with fault set i: every (S_{Fi,Fw}, q ∈ S) for Fw ≠ Fi, each pair
	// once, in the order the Fw and q loops first reach it.
	clauses [][]planClause

	// paths names the paths VAL and COMPLETE floods travel to each node:
	// the redundant ones.
	paths *graph.PathTables
	// nodes[v] is node v's static context, built on the first NewMachine
	// for v.
	nodes []nodeSlot
}

// sourceComp is one distinct source component with the derived forms its
// clauses use.
type sourceComp struct {
	s       graph.Set
	outside graph.Set // V \ S: where covers are sought, before the local node is removed
	members []int
}

// planClause names one Completeness obligation: node q of source component
// comps[comp].
type planClause struct {
	comp int32
	q    int32
}

// nodeSlot holds node v's static context, built once under its Once.
type nodeSlot struct {
	once sync.Once
	pre  *nodePre
	err  error
}

// planKey names a plan: the redundant walk's shared tables stand for the
// graph's content and the budget. The key holds them weakly, so that a
// cached entry does not outlive its plan's tables.
type planKey struct {
	paths weak.Pointer[graph.PathTables]
	f     int
}

// plans shares each plan among every Proto with its key, while one holds it.
var plans weakcache.Cache[planKey, plan]

// getPlan returns the Proto's plan, finding or building it on first use.
func (p *Proto) getPlan() *plan {
	p.planOnce.Do(func() {
		paths := graph.SharedPathTables(p.G, false, p.PathBudget)
		p.plan = plans.Get(planKey{weak.Make(paths), p.F}, func() *plan { return buildPlan(paths, p.F) })
	})
	return p.plan
}

func buildPlan(paths *graph.PathTables, f int) *plan {
	g := paths.Graph()
	n := g.N()
	pl := &plan{
		g:      g,
		f:      f,
		words:  (n + 63) >> 6,
		seqCap: graph.CountSubsets(n-1, f),
		paths:  paths,
		nodes:  make([]nodeSlot, n),
	}
	graph.Subsets(g.Nodes(), f, func(s graph.Set) bool {
		pl.faultSets = append(pl.faultSets, s)
		return true
	})
	T := len(pl.faultSets)
	pl.tagOrder = make([]int32, T)
	pl.srcComp = make([]int32, T*T)
	pl.clauses = make([][]planClause, T)
	for i := range pl.tagOrder {
		pl.tagOrder[i] = int32(i)
	}
	slices.SortFunc(pl.tagOrder, func(a, b int32) int {
		return compareSets(&pl.faultSets[a], &pl.faultSets[b])
	})

	// S_{Fi,Fj} depends on (Fi, Fj) only through the union, and many unions
	// share one component: compute once per union, store once per value.
	all := g.Nodes()
	byUnion := make(map[graph.Set]int32)
	byValue := make(map[graph.Set]int32)
	for i := 0; i < T; i++ {
		for j := i; j < T; j++ {
			u := pl.faultSets[i].Union(pl.faultSets[j])
			c, ok := byUnion[u]
			if !ok {
				s := g.SourceComponent(u, graph.EmptySet)
				if c, ok = byValue[s]; !ok {
					c = int32(len(pl.comps))
					byValue[s] = c
					pl.comps = append(pl.comps, sourceComp{s: s, outside: all.Minus(s), members: s.Members()})
				}
				byUnion[u] = c
			}
			pl.srcComp[i*T+j], pl.srcComp[j*T+i] = c, c
		}
	}

	seen := make(map[planClause]struct{})
	for i := 0; i < T; i++ {
		clear(seen)
		for j := 0; j < T; j++ {
			if j == i {
				continue
			}
			c := pl.srcComp[i*T+j]
			for _, q := range pl.comps[c].members {
				pc := planClause{comp: c, q: int32(q)}
				if _, dup := seen[pc]; !dup {
					seen[pc] = struct{}{}
					pl.clauses[i] = append(pl.clauses[i], pc)
				}
			}
		}
	}
	return pl
}

// tagIndex returns the index of tag in faultSets, or -1 when tag is not a
// fault set (more than f members, or members outside the graph).
func (pl *plan) tagIndex(tag *graph.Set) int32 {
	order := pl.tagOrder
	lo, hi := 0, len(order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := compareSets(&pl.faultSets[order[mid]], tag); {
		case c == 0:
			return order[mid]
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// nodePre is the full static context of one node's machine.
type nodePre struct {
	// paths names every path a message can reach the node along, and its
	// doors admit them; the threads' tables and the round state are laid
	// out over its entries.
	paths   *graph.PathTable
	threads []*threadPre
	// threadOf maps a fault-set index to the position in threads of the
	// thread suspecting it, -1 for sets containing the node itself.
	threadOf []int32
	// avoids[e*threadWords:(e+1)*threadWords] is a bitset over threads:
	// bit i is set when entry e's path avoids threads[i]'s F_v, so that the
	// entry belongs to that thread's fullness set (acceptVal) and to its
	// COMPLETE (fireMC).
	avoids      []uint64
	threadWords int
	// requiredBy[s*threadWords:(s+1)*threadWords] is a bitset over threads:
	// bit i is set when threads[i] requires stream s, that is, when the
	// simple path lies inside its reach set (threadPre.required).
	requiredBy []uint64
	// initOff[c]..initOff[c+1] is the span of the round state's byInit
	// column that c's entries fill: each round carves its per-initial-node
	// lists from one array.
	initOff []int32
	// covers[c+1] holds the candidate covers of component c's clauses,
	// covers[0] Filter-and-Average's, each enumerated on first use; see
	// Machine.covers.
	covers []atomic.Pointer[[]graph.Set]
}

// avoiders returns entry e's row of avoids.
func (pre *nodePre) avoiders(e int32) []uint64 {
	return pre.avoids[int(e)*pre.threadWords : (int(e)+1)*pre.threadWords]
}

// requirers returns stream s's row of requiredBy.
func (pre *nodePre) requirers(s int32) []uint64 {
	return pre.requiredBy[int(s)*pre.threadWords : (int(s)+1)*pre.threadWords]
}

// threadPre is the per-(node, suspect set) static context: the reach set,
// the fullness target of the Maximal-Consistency condition and the
// per-origin simple-path requirements of the FIFO-Receive-All condition.
type threadPre struct {
	fv    graph.Set
	reach graph.Set
	// expectedCount is the size of the fullness set
	// {p ∈ Pr_{V\Fv} : ter(p) = v} of Definition 9: the table entries that
	// avoid F_v. Only the count is needed at run time: an accepted entry
	// belongs to the set exactly when it avoids F_v.
	expectedCount int
	// required numbers, per origin c, the simple (c,v)-paths contained in
	// reach_v(Fv) 0..k-1 (Algorithm 1 line 12), by the path's stream number
	// in the table, -1 for a stream that leaves the reach set; a stream
	// determines its origin, so one column serves the whole thread.
	// need[i] is k for the i-th member of reach in ascending order — the
	// rank every per-origin table of this thread's round state is indexed
	// by — and origins counts the members with k > 0.
	required []int32
	need     []uint32
	origins  int
}

// nodePre returns node v's static context, building it the first time v is
// asked for.
func (pl *plan) nodePre(v int) (*nodePre, error) {
	slot := &pl.nodes[v]
	slot.once.Do(func() { slot.pre, slot.err = pl.precompute(v) })
	return slot.pre, slot.err
}

func (pl *plan) precompute(v int) (*nodePre, error) {
	paths, err := pl.paths.Table(v)
	if err != nil {
		return nil, fmt.Errorf("bw: node %d: %w", v, err)
	}
	tw := (pl.seqCap + 63) >> 6
	pre := &nodePre{
		paths:       paths,
		threadOf:    make([]int32, len(pl.faultSets)),
		avoids:      make([]uint64, len(paths.Set)*tw),
		requiredBy:  make([]uint64, len(paths.Simples)*tw),
		threadWords: tw,
		initOff:     make([]int32, pl.g.N()+1),
		covers:      make([]atomic.Pointer[[]graph.Set], len(pl.comps)+1),
	}
	for _, c := range paths.Head {
		pre.initOff[c+1]++
	}
	for c := range pl.g.N() {
		pre.initOff[c+1] += pre.initOff[c]
	}
	words := pl.words
	for i, fv := range pl.faultSets {
		if fv.Has(v) {
			pre.threadOf[i] = -1
			continue
		}
		ti := len(pre.threads)
		t := &threadPre{fv: fv, reach: pl.g.ReachSet(v, fv), required: make([]int32, len(paths.Simples))}
		for e := range paths.Set {
			if !intersects(&paths.Set[e], &t.fv, words) {
				t.expectedCount++
				pre.avoids[e*tw+ti>>6] |= 1 << (ti & 63)
			}
		}
		// The simple paths ending at v whose nodes lie inside the reach
		// set; grouped by initial node they realize line 12's requirement.
		t.need = make([]uint32, t.reach.Count())
		for s, e := range paths.Simples {
			t.required[s] = -1
			if within(&paths.Set[e], &t.reach, words) {
				r := rankIn(&t.reach, int(paths.Head[e]))
				if t.need[r] == 0 {
					t.origins++
				}
				t.required[s] = int32(t.need[r])
				t.need[r]++
				pre.requiredBy[s*tw+ti>>6] |= 1 << (ti & 63)
			}
		}
		pre.threadOf[i] = int32(ti)
		pre.threads = append(pre.threads, t)
	}
	return pre, nil
}

// Pointer forms of the graph.Set operations the per-delivery paths use. A
// Set is 128 bytes (512 under graph4096) and its value-receiver methods
// copy both operands; these read in place.

// compareSets orders sets as multiword integers. It reads every word: tags
// arrive from the wire and may carry bits beyond the graph's order.
func compareSets(a, b *graph.Set) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// hasNode reports v ∈ s.
func hasNode(s *graph.Set, v int) bool {
	return s[uint(v)>>6]>>(uint(v)&63)&1 != 0
}

// intersects reports a ∩ b ≠ ∅ over the first words words.
func intersects(a, b *graph.Set, words int) bool {
	for i := 0; i < words; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// within reports a ⊆ b over the first words words.
func within(a, b *graph.Set, words int) bool {
	for i := 0; i < words; i++ {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// rankIn returns the number of members of s below v, or -1 when v is not a
// member: the index of v in any table laid out over s's members.
func rankIn(s *graph.Set, v int) int {
	if uint(v) >= uint(graph.MaxNodes) || !hasNode(s, v) {
		return -1
	}
	w, bit := uint(v)>>6, uint(v)&63
	r := bits.OnesCount64(s[w] & (1<<bit - 1))
	for i := uint(0); i < w; i++ {
		r += bits.OnesCount64(s[i])
	}
	return r
}
