package bw

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cond"
	"repro/internal/graph"
)

// TestClauseAddPathMatchesCoverSearch cross-validates the incremental
// viable-cover clause evaluation against the exact hitting-set search it
// replaced: after any sequence of paths, the clause is satisfied iff the
// path set has no f-cover inside allowed. Fed the same paths again in any
// order, with repeats, a clause ends in the same state — satisfied, and the
// same viable candidates, those hitting every path — which is what lets
// one clause per round serve every thread whatever its snapshot time.
func TestClauseAddPathMatchesCoverSearch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		fBound := rng.Intn(3)
		allowed := graph.FullSet(n)
		for k := 0; k < rng.Intn(3); k++ {
			allowed = allowed.Remove(rng.Intn(n))
		}
		covers := candidateCovers(allowed, fBound)
		cl := &clause{}
		var paths []graph.Set
		for step := 0; step < 8; step++ {
			var p graph.Set
			for j := 0; j < 1+rng.Intn(4); j++ {
				p = p.Add(rng.Intn(n))
			}
			paths = append(paths, p)
			cl.addPath(covers, &p)
			want := !cond.HasFCover(paths, fBound, allowed)
			if cl.satisfied != want {
				t.Logf("seed=%d step=%d paths=%v f=%d allowed=%s: incremental=%v exact=%v",
					seed, step, paths, fBound, allowed, cl.satisfied, want)
				return false
			}
		}
		// The one-shot search: the candidates hitting every path.
		var hitting []int32
		for i := range covers {
			hitsAll := true
			for j := range paths {
				hitsAll = hitsAll && intersects(&covers[i], &paths[j], len(paths[j]))
			}
			if hitsAll {
				hitting = append(hitting, int32(i))
			}
		}
		if !slices.Equal(cl.viable, hitting) {
			t.Logf("seed=%d paths=%v f=%d allowed=%s: viable %v, hitting every path %v", seed, paths, fBound, allowed, cl.viable, hitting)
			return false
		}
		for trial := 0; trial < 4; trial++ {
			fed := slices.Clone(paths)
			for k := rng.Intn(len(paths)); k > 0; k-- {
				fed = append(fed, paths[rng.Intn(len(paths))])
			}
			rng.Shuffle(len(fed), func(i, j int) { fed[i], fed[j] = fed[j], fed[i] })
			again := &clause{}
			for i := range fed {
				again.addPath(covers, &fed[i])
			}
			if again.satisfied != cl.satisfied || !slices.Equal(again.viable, hitting) {
				t.Logf("seed=%d fed=%v: satisfied %v viable %v, in path order %v %v", seed, fed, again.satisfied, again.viable, cl.satisfied, hitting)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestClauseAddPathLatched: once satisfied, further paths cannot
// unsatisfy a clause (monotonicity the algorithm relies on).
func TestClauseAddPathLatched(t *testing.T) {
	cl, covers := &clause{}, candidateCovers(graph.SetOf(0, 1), 1)
	two, zero := graph.SetOf(2), graph.SetOf(0)
	cl.addPath(covers, &two) // no candidate can hit {2}
	if !cl.satisfied {
		t.Fatal("clause should be satisfied")
	}
	cl.addPath(covers, &zero)
	if !cl.satisfied {
		t.Fatal("satisfaction must latch")
	}
}

// TestDigestCacheDistinguishesContents ensures the identity-keyed digest
// cache cannot conflate payloads with different backing arrays.
func TestDigestCacheDistinguishesContents(t *testing.T) {
	p, err := NewProto(graph.Clique(4), 1, 1, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a := &CompletePayload{Origin: 1, Tag: graph.SetOf(2),
		Entries: []ValEntry{{Value: 1, Entry: 0}}}
	b := &CompletePayload{Origin: 1, Tag: graph.SetOf(2),
		Entries: []ValEntry{{Value: 2, Entry: 0}}}
	if m.floodInfo(a).key == m.floodInfo(b).key {
		t.Error("different contents produced the same digest")
	}
	// Same payload twice: cached, equal.
	if m.floodInfo(a).key != m.floodInfo(a).key {
		t.Error("digest not stable")
	}
	// Equal content in a different backing array still digests equally.
	c := &CompletePayload{Origin: 1, Tag: graph.SetOf(2),
		Entries: []ValEntry{{Value: 1, Entry: 0}}}
	if m.floodInfo(a).key != m.floodInfo(c).key {
		t.Error("equal contents digested differently")
	}
}

// TestNodePreOncePerProto: however many machines a Proto builds for a node,
// from however many goroutines (cluster runtimes construct and run machines
// concurrently), the plan and each node's static context are computed once
// and shared.
func TestNodePreOncePerProto(t *testing.T) {
	g := graph.Fig1a()
	p, err := NewProto(g, 1, 4, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.plan != nil {
		t.Fatal("NewProto built the plan; it belongs to the first NewMachine")
	}
	const perNode = 4
	machines := make([]*Machine, perNode*g.N())
	var wg sync.WaitGroup
	for i := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMachine(p, i%g.N(), 0.5)
			if err != nil {
				t.Error(err)
				return
			}
			machines[i] = m
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	plans := make(map[*plan]struct{})
	pres := make(map[*nodePre]struct{})
	for _, m := range machines {
		plans[m.plan] = struct{}{}
		pres[m.pre] = struct{}{}
	}
	if len(plans) != 1 || len(pres) != g.N() {
		t.Errorf("%d machines hold %d plans and %d node contexts, want 1 and %d", len(machines), len(plans), len(pres), g.N())
	}
}

// TestPlanClauseLists cross-validates the per-tag clause lists against the
// nested loops they replace: for each Fw ≠ tag in fault-set order, each q
// of S_{tag,Fw} in ascending order, first occurrence of (S, q) only.
func TestPlanClauseLists(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Fig1a(), graph.Clique(4), graph.Fig1bAnalog()} {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		pl := p.getPlan()
		for i, tag := range pl.faultSets {
			type sq struct {
				s graph.Set
				q int
			}
			var want []sq
			seen := make(map[sq]bool)
			for _, fw := range pl.faultSets {
				if fw == tag {
					continue
				}
				s := g.SourceComponent(tag, fw)
				for _, q := range s.Members() {
					if k := (sq{s, q}); !seen[k] {
						seen[k] = true
						want = append(want, k)
					}
				}
			}
			var got []sq
			for _, c := range pl.clauses[i] {
				got = append(got, sq{pl.comps[c.comp].s, int(c.q)})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s tag %s: clause list %v, want %v", g, tag, got, want)
			}
			if idx := pl.tagIndex(&tag); int(idx) != i {
				t.Errorf("%s: tagIndex(%s) = %d, want %d", g, tag, idx, i)
			}
		}
		for _, notTag := range []graph.Set{graph.SetOf(0, 1), graph.SetOf(g.N()), graph.SetOf(0, graph.MaxNodes-1)} {
			if idx := pl.tagIndex(&notTag); idx != -1 {
				t.Errorf("%s: tagIndex(%s) = %d for a set that is no fault set", g, notTag, idx)
			}
		}
	}
}

// TestCoverablePrefixMatchesCond cross-validates Filter-and-Average's
// trimming — the clause cover filter run over a growing prefix — against
// the hitting-set search of cond.CoverablePrefix it stands in for.
func TestCoverablePrefixMatchesCond(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range []int{0, 1, 2} {
		g := graph.Clique(6)
		p, err := NewProto(g, f, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(p, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		allowed := g.Nodes().Remove(m.id)
		for trial := 0; trial < 200; trial++ {
			var all []graph.Set
			order := make([]int32, 1+rng.Intn(12))
			for i := range order {
				var s graph.Set
				for k := 1 + rng.Intn(3); k > 0; k-- {
					s = s.Add(rng.Intn(g.N()))
				}
				all = append(all, s)
				order[i] = int32(i)
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			sets := make([]graph.Set, len(order))
			for i, e := range order {
				sets[i] = all[e]
			}
			if got, want := m.coverablePrefix(all, order), cond.CoverablePrefix(sets, f, allowed); got != want {
				t.Fatalf("f=%d sets=%v: coverable prefix %d, cond says %d", f, sets, got, want)
			}
		}
	}
}

// TestFilterAndAverageMatchesComparatorSort holds Filter-and-Average's
// counting sort to the comparator sort it replaced, on the path tables of
// fig1a, clique:4 and fig1b-analog: for random M_v — a random subset of the
// table, always with the node's own entry, accepted in random order — the
// (value, rank) order and the trimmed midpoint are the same, bit for bit.
// The values are one per initial node; a few shared by every entry (ties
// across initial nodes); -0, +0 and ±1 (equal zeros of either sign); or one
// per initial node but a distinct value per entry from one Byzantine origin.
func TestFilterAndAverageMatchesComparatorSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	kinds := []struct {
		name  string
		value func(rng *rand.Rand, perInit []float64, byz, init int) float64
	}{
		{"one per initial node", func(_ *rand.Rand, perInit []float64, _, init int) float64 { return perInit[init] }},
		{"ties", func(rng *rand.Rand, _ []float64, _, _ int) float64 { return float64(rng.Intn(3)) / 2 }},
		{"signed zeros", func(rng *rand.Rand, _ []float64, _, _ int) float64 {
			return []float64{negZero, 0, -1, 1}[rng.Intn(4)]
		}},
		{"byzantine distinct", func(rng *rand.Rand, perInit []float64, byz, init int) float64 {
			if init == byz {
				return rng.NormFloat64()
			}
			return perInit[init]
		}},
	}
	rng := rand.New(rand.NewSource(45))
	for _, g := range []*graph.Graph{graph.Fig1a(), graph.Clique(4), graph.Fig1bAnalog()} {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			m, err := NewMachine(p, v, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			tbl := m.pre.paths
			for _, kind := range kinds {
				for trial := 0; trial < 4; trial++ {
					perInit := make([]float64, g.N())
					for c := range perInit {
						perInit[c] = float64(rng.Intn(4)) / 4
					}
					byz := (v + 1 + rng.Intn(g.N()-1)) % g.N()
					rs := newRoundState(1, g.N(), m.pre)
					keep := rng.Float64()
					for _, e := range rng.Perm(len(tbl.Head)) {
						if e != 0 && rng.Float64() > keep {
							continue
						}
						init := int(tbl.Head[e])
						rs.vals[e], rs.has[e] = kind.value(rng, perInit, byz, init), true
						rs.byInit[init] = append(rs.byInit[init], int32(e))
					}
					rs.x = rs.vals[0]
					wantOrder, wantMid := comparatorFilterAndAverage(m, rs)
					if got := m.valueOrder(rs); !slices.Equal(got, wantOrder) {
						t.Fatalf("%s node %d %s: counting sort and comparator sort disagree on %d entries", g, v, kind.name, len(wantOrder))
					}
					if got := m.filterAndAverage(rs); math.Float64bits(got) != math.Float64bits(wantMid) {
						t.Fatalf("%s node %d %s: trimmed midpoint %v, comparator sort's %v", g, v, kind.name, got, wantMid)
					}
				}
			}
		}
	}
}
