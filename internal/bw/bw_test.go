package bw

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestRoundsFor(t *testing.T) {
	tests := []struct {
		k, eps float64
		want   int
	}{
		{1, 2, 0},   // K < eps: trivial
		{1, 1, 1},   // K/2 < eps = 1
		{1, 0.5, 2}, // 1 -> 0.5 -> 0.25
		{8, 1, 4},   // 8 -> 4 -> 2 -> 1 -> 0.5
		{3, 0.1, 5}, // 3 -> ... -> 0.09375
		{100, 0.01, 14},
	}
	for _, tc := range tests {
		if got := RoundsFor(tc.k, tc.eps); got != tc.want {
			t.Errorf("RoundsFor(%g,%g) = %d, want %d", tc.k, tc.eps, got, tc.want)
		}
	}
	// Resulting spread bound: K/2^R < eps.
	for _, tc := range tests {
		r := RoundsFor(tc.k, tc.eps)
		spread := tc.k
		for i := 0; i < r; i++ {
			spread /= 2
		}
		if spread >= tc.eps {
			t.Errorf("K=%g eps=%g: %d rounds leave spread %g", tc.k, tc.eps, r, spread)
		}
	}
}

func TestNewProtoValidation(t *testing.T) {
	g := graph.Clique(4)
	if _, err := NewProto(g, -1, 1, 0.1, 0); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := NewProto(g, 1, 0, 0.1, 0); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := NewProto(g, 1, 1, 0, 0); err == nil {
		t.Error("zero eps accepted")
	}
	p, err := NewProto(g, 1, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fault sets: empty + 4 singletons.
	if len(p.getPlan().faultSets) != 5 {
		t.Errorf("fault sets = %d, want 5", len(p.getPlan().faultSets))
	}
	if p.PathBudget != DefaultPathBudget {
		t.Errorf("budget default = %d", p.PathBudget)
	}
}

func TestProtoSourceComponentTable(t *testing.T) {
	g := graph.Clique(4)
	p, err := NewProto(g, 1, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := p.getPlan()
	T := len(pl.faultSets)
	// Table entries must agree with direct computation for every pair of
	// fault sets — which covers all unions of up to 2f nodes.
	for i, fi := range pl.faultSets {
		for j, fj := range pl.faultSets {
			got, want := pl.comps[pl.srcComp[i*T+j]].s, g.SourceComponent(fi.Union(fj), graph.EmptySet)
			if got != want {
				t.Errorf("S_{%s,%s}: table %s, direct %s", fi, fj, got, want)
			}
			// Symmetric in its arguments.
			if pl.srcComp[i*T+j] != pl.srcComp[j*T+i] {
				t.Errorf("S_{%s,%s}: source component not symmetric", fi, fj)
			}
		}
	}
	// Each distinct component is stored once, with its derived forms.
	for a, ca := range pl.comps {
		for b, cb := range pl.comps {
			if a != b && ca.s == cb.s {
				t.Errorf("component %s stored twice", ca.s)
			}
		}
		if ca.outside != g.Nodes().Minus(ca.s) || len(ca.members) != ca.s.Count() {
			t.Errorf("component %s: outside %s, members %v", ca.s, ca.outside, ca.members)
		}
	}
}

func TestMachinePathBudget(t *testing.T) {
	p, err := NewProto(graph.Clique(6), 1, 1, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(p, 0, 0.5); err == nil {
		t.Error("tiny budget should fail on K6")
	}
}

// TestThreadPrecompute holds every node's thread contexts, on every table
// graph, to the definitions: one thread per fault set not containing the
// node; the fullness count is CountRedundantPathsTo avoiding F_v; the reach
// set contains the node; and the FIFO requirements are exactly the simple
// (c, v)-paths inside the reach set, named by the table's streams and
// numbered 0..k-1 per origin c, with k recorded at c's rank in the reach
// set — for the node itself, the trivial path alone. The static columns
// the deliveries read in their place hold the same predicates: an entry's
// thread bit is set exactly when its path avoids F_v, a stream's exactly
// when the thread requires it, which is exactly when the simple path lies
// inside the reach set; each thread's rank-ordered entry list is the
// avoids-bit filter of ByRank, and its tag index names its fault set; and
// initOff spans each initial node's entries.
// tableGraphs is the graph set of graph.TestPathTableMatchesReference.
func TestThreadPrecompute(t *testing.T) {
	for _, g := range tableGraphs() {
		p, err := NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			pre, err := p.getPlan().nodePre(v)
			if errors.Is(err, graph.ErrPathBudget) {
				continue // a random digraph too dense to flood
			}
			if err != nil {
				t.Fatal(err)
			}
			threads := 0
			for _, fv := range p.getPlan().faultSets {
				if !fv.Has(v) {
					threads++
				}
			}
			if len(pre.threads) != threads {
				t.Fatalf("%s node %d: %d threads, want %d", g, v, len(pre.threads), threads)
			}
			words := p.getPlan().words
			heads := make([]int32, g.N()+1)
			for _, c := range pre.paths.Head {
				heads[c+1]++
			}
			for c := range g.N() {
				heads[c+1] += heads[c]
			}
			if !slices.Equal(pre.initOff, heads) {
				t.Errorf("%s node %d: initOff %v, the table's entries per initial node end at %v", g, v, pre.initOff, heads)
			}
			for ti, th := range pre.threads {
				word, bit := ti>>6, uint64(1)<<(ti&63)
				for e := range pre.paths.Set {
					avoids := pre.avoiders(int32(e))[word]&bit != 0
					if avoids != !intersects(&pre.paths.Set[e], &th.fv, words) {
						t.Errorf("%s node %d thread %s entry %d: avoids bit %v, path %s", g, v, th.fv, e, avoids, spell(pre.paths, int32(e)))
					}
				}
				var filtered, listed []int32
				for _, e := range pre.paths.ByRank {
					if pre.avoiders(e)[word]&bit != 0 {
						filtered = append(filtered, e)
					}
				}
				for r, e := range pre.paths.ByRank {
					if th.byRank[r>>6]>>(r&63)&1 != 0 {
						listed = append(listed, e)
					}
				}
				if !slices.Equal(listed, filtered) || len(th.byRank) != (len(pre.paths.ByRank)+63)>>6 || len(listed) != th.expectedCount {
					t.Errorf("%s node %d thread %s: the rank-ordered entry list has %d entries, the avoids filter of ByRank %d, the fullness count %d",
						g, v, th.fv, len(listed), len(filtered), th.expectedCount)
				}
				if p.getPlan().faultSets[th.tagIdx] != th.fv || pre.threadOf[th.tagIdx] != int32(ti) {
					t.Errorf("%s node %d thread %d: tagIdx %d names %s, the thread suspects %s", g, v, ti, th.tagIdx, p.getPlan().faultSets[th.tagIdx], th.fv)
				}
				for s, e := range pre.paths.Simples {
					required := pre.requirers(int32(s))[word]&bit != 0
					inside := within(&pre.paths.Set[e], &th.reach, words)
					if required != inside || (th.required[s] >= 0) != inside {
						t.Errorf("%s node %d thread %s stream %d: requiredBy bit %v, required %d, inside reach %v", g, v, th.fv, s, required, th.required[s], inside)
					}
				}
				if th.fv.Has(v) || !th.reach.Has(v) {
					t.Errorf("%s node %d thread %s: suspects its own node, or reach %s misses it", g, v, th.fv, th.reach)
				}
				count, err := g.CountRedundantPathsTo(v, th.fv, 0)
				if err != nil {
					t.Fatal(err)
				}
				if th.expectedCount != count {
					t.Errorf("%s node %d thread %s: expectedCount %d, CountRedundantPathsTo %d", g, v, th.fv, th.expectedCount, count)
				}
				simple, err := g.SimplePathsTo(v, g.Nodes().Minus(th.reach), 0)
				if err != nil {
					t.Fatal(err)
				}
				wantFIFO := make(map[int]map[string]bool)
				all := make(map[string]bool)
				for _, sp := range simple {
					c := sp.Init()
					if wantFIFO[c] == nil {
						wantFIFO[c] = make(map[string]bool)
					}
					wantFIFO[c][sp.Key()] = true
					all[sp.Key()] = true
				}
				required := make(map[string]int32)
				got := make(map[string]bool)
				for stream, num := range th.required {
					if num >= 0 {
						k := spell(pre.paths, pre.paths.Simples[stream]).Key()
						required[k], got[k] = num, true
					}
				}
				if !reflect.DeepEqual(got, all) {
					t.Errorf("%s node %d thread %s: requiredFIFO mismatch", g, v, th.fv)
				}
				for r, c := range th.reach.Members() {
					nums := make(map[int32]bool)
					for k := range wantFIFO[c] {
						nums[required[k]] = true
					}
					if int(th.need[r]) != len(wantFIFO[c]) || len(nums) != len(wantFIFO[c]) {
						t.Errorf("%s node %d thread %s origin %d: need %d, %d distinct numbers for %d paths", g, v, th.fv, c, th.need[r], len(nums), len(wantFIFO[c]))
					}
					for num := range nums {
						if uint32(num) >= th.need[r] {
							t.Errorf("%s node %d thread %s origin %d: path number %d out of range", g, v, th.fv, c, num)
						}
					}
				}
				if th.origins != len(wantFIFO) {
					t.Errorf("%s node %d thread %s: origins = %d, want %d", g, v, th.fv, th.origins, len(wantFIFO))
				}
				if self := wantFIFO[v]; len(self) != 1 || !self[graph.Path{v}.Key()] {
					t.Errorf("%s node %d thread %s: self FIFO requirement = %v", g, v, th.fv, self)
				}
			}
		}
	}
}

func TestContentKeyCanonical(t *testing.T) {
	a := CompletePayload{Origin: 1, Tag: graph.SetOf(2), Entries: []ValEntry{
		{Value: 1.5, Entry: 3}, {Value: 2.5, Entry: 8},
	}}
	b := a
	b.Entry = 9 // path and seq are not content
	b.Seq = 7
	if a.contentKey() != b.contentKey() {
		t.Error("content key depends on path/seq")
	}
	c := a
	c.Entries = []ValEntry{{Value: 1.5, Entry: 3}, {Value: 2.5000001, Entry: 8}}
	if a.contentKey() == c.contentKey() {
		t.Error("content key ignores values")
	}
	d := a
	d.Tag = graph.SetOf(3)
	if a.contentKey() == d.contentKey() {
		t.Error("content key ignores tag")
	}
	e := a
	e.Entries = []ValEntry{{Value: 1.5, Entry: 3}, {Value: 2.5, Entry: 9}}
	if a.contentKey() == e.contentKey() {
		t.Error("content key ignores entry ids")
	}
	o := a
	o.Origin = 2
	if a.contentKey() == o.contentKey() {
		t.Error("content key ignores the origin")
	}

	// Every entry is two fixed-width words, so no set of entries reads as
	// another: not a prefix of it, and not one whose values trade ids.
	one := CompletePayload{Origin: 1, Tag: graph.SetOf(2), Entries: a.Entries[:1]}
	moved := CompletePayload{Origin: 1, Tag: graph.SetOf(2), Entries: []ValEntry{
		{Value: 2.5, Entry: 3}, {Value: 1.5, Entry: 8},
	}}
	for _, other := range []CompletePayload{one, moved} {
		if other.contentKey() == a.contentKey() {
			t.Errorf("entries %v share a content key with %v", other.Entries, a.Entries)
		}
	}
}

// TestFloodInfoConsistency: an entry's initial node is read from the
// origin's table, so value_q and the Definition 8 consistency flag are the
// same whether the entries are named by id or spelled out.
func TestFloodInfoConsistency(t *testing.T) {
	g := graph.Fig1a()
	proto, err := NewProto(g, 1, 1, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := proto.table(0)
	if err != nil {
		t.Fatal(err)
	}
	id := func(path ...int) int32 {
		e := entryOf(tbl, path)
		if e < 0 {
			t.Fatalf("%v is no entry of vertex 0's table", path)
		}
		return e
	}
	p := &CompletePayload{Origin: 0, Entries: []ValEntry{
		{Value: 1, Entry: id(2, 0)},
		{Value: 1, Entry: id(2, 1, 0)},
		{Value: 3, Entry: id(4, 0)},
	}}
	rec := proto.getPlan().newFloodInfo(p, p.contentKey())
	if !rec.consistent {
		t.Error("consistent set flagged inconsistent")
	}
	if v2, _ := rec.value(2); v2 != 1 {
		t.Errorf("values = %v", rec.values)
	}
	if v4, _ := rec.value(4); v4 != 3 {
		t.Errorf("values = %v", rec.values)
	}
	if _, ok := rec.value(3); ok || rec.tagIdx != 0 {
		t.Errorf("values = %v, tag index %d", rec.values, rec.tagIdx)
	}
	p2 := &CompletePayload{Origin: 0, Entries: []ValEntry{
		{Value: 1, Entry: id(2, 0)},
		{Value: 2, Entry: id(2, 1, 0)}, // same init, different value
	}}
	if proto.getPlan().newFloodInfo(p2, p2.contentKey()).consistent {
		t.Error("inconsistent set not flagged")
	}
	// An id that names no entry of the origin's table, and an origin
	// outside the graph, leave the set inconsistent.
	for _, bad := range []*CompletePayload{
		{Origin: 0, Entries: []ValEntry{{Value: 1, Entry: -1}}},
		{Origin: 0, Entries: []ValEntry{{Value: 1, Entry: int32(len(tbl.Head))}}},
		{Origin: g.N(), Entries: []ValEntry{{Value: 1, Entry: 0}}},
		{Origin: -1, Entries: []ValEntry{{Value: 1, Entry: 0}}},
	} {
		if proto.getPlan().newFloodInfo(bad, bad.contentKey()).consistent {
			t.Errorf("origin %d entries %v accepted", bad.Origin, bad.Entries)
		}
	}
	// A Byzantine flood need not be sorted: same verdicts, same lookups.
	p4 := &CompletePayload{Origin: 0, Tag: graph.SetOf(3), Entries: []ValEntry{
		{Value: 3, Entry: id(4, 0)},
		{Value: 1, Entry: id(2, 0)},
		{Value: 3, Entry: id(4, 1, 0)},
		{Value: 1, Entry: id(2, 1, 0)},
	}}
	rec = proto.getPlan().newFloodInfo(p4, p4.contentKey())
	v2, ok2 := rec.value(2)
	v4, ok4 := rec.value(4)
	if !rec.consistent || !ok2 || !ok4 || v2 != 1 || v4 != 3 || len(rec.values) != 2 {
		t.Errorf("unsorted consistent set: consistent=%v values=%v", rec.consistent, rec.values)
	}
	if got := proto.getPlan().faultSets[rec.tagIdx]; got != graph.SetOf(3) {
		t.Errorf("tag index %d names %s", rec.tagIdx, got)
	}
	p4.Entries[2].Value = 5
	if proto.getPlan().newFloodInfo(p4, p4.contentKey()).consistent {
		t.Error("unsorted inconsistent set not flagged")
	}
	p4.Tag = graph.SetOf(3, 900)
	if idx := proto.getPlan().newFloodInfo(p4, p4.contentKey()).tagIdx; idx != -1 {
		t.Errorf("tag outside the graph got index %d", idx)
	}
}

// TestFloodInfoChecksContentHit: a decoded copy (an entry slice of its
// own) reuses the cached summary of its flood, but a copy whose content
// digest collides with a cached flood of other entries is summarized from
// its own entries, and the cache slot stays with the first.
func TestFloodInfoChecksContentHit(t *testing.T) {
	g := graph.Fig1a()
	proto, err := NewProto(g, 1, 1, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := proto.table(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(proto, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := func(v2, v4 float64) []ValEntry {
		return []ValEntry{{Value: v2, Entry: entryOf(tbl, graph.Path{2, 0})}, {Value: v4, Entry: entryOf(tbl, graph.Path{4, 0})}}
	}
	honest := &CompletePayload{Origin: 0, Entries: entries(1, 3)}
	first := m.floodInfo(honest)
	if again := m.floodInfo(&CompletePayload{Origin: 0, Entries: entries(1, 3)}); again != first {
		t.Error("a decoded copy of a cached flood was summarized again")
	}

	// Plant a forged flood under an honest flood's digest, as a sender that
	// found a collision and got there first would.
	proto, _ = NewProto(g, 1, 1, 0.5, 0)
	if m, err = NewMachine(proto, 1, 0); err != nil {
		t.Fatal(err)
	}
	key := honest.contentKey()
	forged := proto.getPlan().newFloodInfo(&CompletePayload{Origin: 0, Entries: entries(9, 9)}, key)
	proto.floods.Store(key, forged)
	got := m.floodInfo(&CompletePayload{Origin: 0, Entries: entries(1, 3)})
	if got == forged {
		t.Fatal("a colliding copy took the cached flood's summary")
	}
	if v2, _ := got.value(2); v2 != 1 || !got.consistent {
		t.Errorf("colliding copy summarized as %v (consistent %v), want its own values", got.values, got.consistent)
	}
	if v, _ := proto.floods.Load(key); v != forged {
		t.Error("the colliding copy replaced the cached flood")
	}
}
