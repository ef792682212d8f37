package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Path helpers no production code needs any more, kept for the tests below
// as references.

// Ter returns the terminal node of the path.
func (p Path) Ter() int { return p[len(p)-1] }

// PathFromKey decodes a Key back into a Path. Odd-length inputs (which no
// Key produces) drop the trailing byte.
func PathFromKey(k string) Path {
	p := make(Path, len(k)/2)
	for i := range p {
		p[i] = int(k[2*i])<<8 | int(k[2*i+1])
	}
	return p
}

// ValidIn reports whether p is a directed walk of g: nonempty, nodes in
// range, and consecutive nodes joined by edges.
func (p Path) ValidIn(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	for _, v := range p {
		if v < 0 || v >= g.n {
			return false
		}
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return false
		}
	}
	return true
}

// SimplePathsFromTo enumerates the simple (from, to)-paths avoiding excl.
// With from == to only the trivial path is returned.
func (g *Graph) SimplePathsFromTo(from, to int, excl Set, budget int) ([]Path, error) {
	if excl.Has(from) || excl.Has(to) {
		return nil, nil
	}
	if from == to {
		return []Path{{to}}, nil
	}
	var out []Path
	cur := Path{from}
	var rec func(at int, visited Set) error
	rec = func(at int, visited Set) error {
		if at == to {
			p := make(Path, len(cur))
			copy(p, cur)
			out = append(out, p)
			if budget > 0 && len(out) > budget {
				return ErrPathBudget
			}
			return nil
		}
		var err error
		g.outMask[at].Minus(visited).Minus(excl).ForEach(func(w int) bool {
			cur = append(cur, w)
			err = rec(w, visited.Add(w))
			cur = cur[:len(cur)-1]
			return err == nil
		})
		return err
	}
	if err := rec(from, SetOf(from)); err != nil {
		return nil, err
	}
	return out, nil
}

func TestPathBasics(t *testing.T) {
	p := Path{2, 0, 1}
	if p.Init() != 2 || p.Ter() != 1 {
		t.Error("Init/Ter wrong")
	}
	if p.Set() != SetOf(0, 1, 2) {
		t.Error("Set wrong")
	}
	if got := PathFromKey(p.Key()); !reflect.DeepEqual(got, p) {
		t.Errorf("key round trip: %v", got)
	}
	ap := p.Append(3)
	if !reflect.DeepEqual(ap, Path{2, 0, 1, 3}) || len(p) != 3 {
		t.Error("Append must not mutate the receiver")
	}
	if p.String() != "<2 0 1>" {
		t.Errorf("String = %q", p.String())
	}
}

func TestIsSimple(t *testing.T) {
	if !(Path{0, 1, 2}).IsSimple() || (Path{0, 1, 0}).IsSimple() {
		t.Error("IsSimple wrong")
	}
	if !(Path{5}).IsSimple() {
		t.Error("trivial path is simple")
	}
}

func TestIsRedundant(t *testing.T) {
	tests := []struct {
		p    Path
		want bool
	}{
		{Path{0}, true},              // trivial
		{Path{0, 1, 2}, true},        // simple
		{Path{0, 1, 0, 2}, true},     // <0,1,0> no... split at index 1: <0,1>+<1,0,2>
		{Path{0, 1, 2, 1, 3}, true},  // <0,1,2> + <2,1,3>
		{Path{0, 1, 0, 1}, false},    // needs three simple pieces
		{Path{1, 0, 1, 0}, false},    // same
		{Path{0, 1, 2, 0, 1}, true},  // <0,1,2> + <2,0,1>
		{Path{}, false},              // empty is not a path
		{Path{3, 4, 3, 4, 3}, false}, // zigzag needs 4 pieces
	}
	for _, tc := range tests {
		if got := tc.p.IsRedundant(); got != tc.want {
			t.Errorf("IsRedundant(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestIsRedundantMatchesBruteForce compares the linear-time check with the
// definition: some split into two simple halves exists.
func TestIsRedundantMatchesBruteForce(t *testing.T) {
	brute := func(p Path) bool {
		for i := 0; i < len(p); i++ {
			if Path(p[:i+1]).IsSimple() && Path(p[i:]).IsSimple() {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		p := make(Path, n)
		for i := range p {
			p[i] = rng.Intn(4)
		}
		if got, want := p.IsRedundant(), brute(p); got != want {
			t.Fatalf("IsRedundant(%v) = %v, brute = %v", p, got, want)
		}
	}
}

func TestValidIn(t *testing.T) {
	g := DirectedCycle(4)
	if !(Path{0, 1, 2}).ValidIn(g) {
		t.Error("valid path rejected")
	}
	if (Path{0, 2}).ValidIn(g) {
		t.Error("non-edge accepted")
	}
	if (Path{}).ValidIn(g) || (Path{7}).ValidIn(g) {
		t.Error("empty/out-of-range accepted")
	}
}

func TestSimplePathsToCycle(t *testing.T) {
	g := DirectedCycle(4)
	paths, err := g.SimplePathsTo(0, EmptySet, 0)
	if err != nil {
		t.Fatal(err)
	}
	// <0>, <3,0>, <2,3,0>, <1,2,3,0>.
	if len(paths) != 4 {
		t.Fatalf("cycle simple paths to 0: %d, want 4: %v", len(paths), paths)
	}
	for _, p := range paths {
		if p.Ter() != 0 || !p.IsSimple() || !p.ValidIn(g) {
			t.Errorf("bad path %v", p)
		}
	}
}

func TestSimplePathsToExclusion(t *testing.T) {
	g := Clique(4)
	paths, err := g.SimplePathsTo(0, SetOf(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	// K3 on {0,1,2}: <0>, <1,0>, <2,0>, <1,2,0>, <2,1,0>.
	if len(paths) != 5 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	for _, p := range paths {
		if p.Set().Has(3) {
			t.Errorf("excluded node on path %v", p)
		}
	}
}

func TestSimplePathsFromTo(t *testing.T) {
	g := Clique(4)
	paths, err := g.SimplePathsFromTo(1, 2, EmptySet, 0)
	if err != nil {
		t.Fatal(err)
	}
	// <1,2>, <1,0,2>, <1,3,2>, <1,0,3,2>, <1,3,0,2>.
	if len(paths) != 5 {
		t.Fatalf("got %d: %v", len(paths), paths)
	}
	same, err := g.SimplePathsFromTo(2, 2, EmptySet, 0)
	if err != nil || len(same) != 1 || len(same[0]) != 1 {
		t.Errorf("from==to: %v, %v", same, err)
	}
}

func TestPathBudget(t *testing.T) {
	g := Clique(6)
	if _, err := g.SimplePathsTo(0, EmptySet, 10); !errors.Is(err, ErrPathBudget) {
		t.Errorf("want ErrPathBudget, got %v", err)
	}
	if _, err := g.RedundantPathsTo(0, EmptySet, 50); !errors.Is(err, ErrPathBudget) {
		t.Errorf("want ErrPathBudget, got %v", err)
	}
}

// TestRedundantPathsMatchBruteForce enumerates all walks up to length 2n on
// tiny graphs and compares the redundant ones ending at v with the
// generator's output.
func TestRedundantPathsMatchBruteForce(t *testing.T) {
	graphs := []*Graph{
		DirectedCycle(3),
		Clique(3),
		func() *Graph {
			g := New(4)
			g.MustAddEdge(0, 1)
			g.MustAddEdge(1, 2)
			g.MustAddEdge(2, 0)
			g.MustAddEdge(1, 3)
			g.MustAddEdge(3, 0)
			return g
		}(),
	}
	for gi, g := range graphs {
		for v := 0; v < g.N(); v++ {
			got, err := g.RedundantPathsTo(v, EmptySet, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRedundantTo(g, v, EmptySet)
			if !reflect.DeepEqual(keysSorted(got), keysSorted(want)) {
				t.Errorf("graph %d, v=%d: generator %d paths, brute force %d",
					gi, v, len(got), len(want))
			}
		}
	}
}

// bruteRedundantTo enumerates all walks ending at v by BFS over walk space,
// keeping redundant ones. Walk length is bounded by 2n (the paper's bound
// on redundant path length).
func bruteRedundantTo(g *Graph, v int, excl Set) map[string]struct{} {
	out := make(map[string]struct{})
	var rec func(walk Path)
	rec = func(walk Path) {
		if len(walk) > 2*g.N() {
			return
		}
		if !walk.IsRedundant() {
			return // no extension of a non-redundant prefix is redundant
		}
		if walk.Ter() == v {
			out[walk.Key()] = struct{}{}
		}
		last := walk.Ter()
		for _, w := range g.Out(last) {
			if !excl.Has(w) {
				rec(walk.Append(w))
			}
		}
	}
	for s := 0; s < g.N(); s++ {
		if !excl.Has(s) {
			rec(Path{s})
		}
	}
	return out
}

func keysSorted(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRedundantPrefixClosed: every prefix of a redundant path is redundant
// (the property the flooding relay rule relies on).
func TestRedundantPrefixClosed(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := make(Path, 0, len(raw))
		for _, b := range raw {
			p = append(p, int(b%5))
		}
		if !p.IsRedundant() {
			return true
		}
		for i := 1; i <= len(p); i++ {
			if !Path(p[:i]).IsRedundant() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCountRedundantPathsTo(t *testing.T) {
	g := DirectedCycle(3)
	n, err := g.CountRedundantPathsTo(0, EmptySet, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := len(bruteRedundantTo(g, 0, EmptySet))
	if n != want {
		t.Errorf("count = %d, want %d", n, want)
	}
}

// TestCountRedundantMatchesEnumeration pins the DFS counter to the
// materializing enumeration across graph shapes and exclusion sets — the
// counter visits walks in a completely different order (reversed-graph DFS),
// so agreement here is a strong check of the O(1) extension arithmetic.
func TestCountRedundantMatchesEnumeration(t *testing.T) {
	graphs := []*Graph{
		DirectedCycle(3),
		DirectedCycle(6),
		Clique(4),
		Wheel(4),
		Circulant(6, 1, 2),
		Torus(2, 3),
		KRegular(6, 2, 7),
		RandomDigraph(6, 0.4, 11),
	}
	for gi, g := range graphs {
		for v := 0; v < g.N(); v++ {
			for _, excl := range []Set{EmptySet, SetOf((v + 1) % g.N()), SetOf(v)} {
				enum, err := g.RedundantPathsTo(v, excl, 0)
				if err != nil {
					t.Fatal(err)
				}
				count, err := g.CountRedundantPathsTo(v, excl, 0)
				if err != nil {
					t.Fatal(err)
				}
				if count != len(enum) {
					t.Errorf("graph %d (%s), v=%d excl=%s: count %d, enumeration %d",
						gi, g.Name(), v, excl, count, len(enum))
				}
			}
		}
	}
	// The budget fires identically to the enumeration's.
	if _, err := Clique(6).CountRedundantPathsTo(0, EmptySet, 50); !errors.Is(err, ErrPathBudget) {
		t.Errorf("want ErrPathBudget, got %v", err)
	}
}

// TestWalkRedundantPathsTo holds the visitor's view to the definitions, for
// both walks: the paths spelled out from (Head, Suffix) are exactly the
// enumeration's — RedundantPathsTo, or SimplePathsTo for the simple walk —
// each once and after its suffix, Simple is IsSimple, and ExtendsBy is
// IsRedundant (IsSimple) of the appended path for every vertex of the graph.
func TestWalkRedundantPathsTo(t *testing.T) {
	graphs := []*Graph{
		DirectedCycle(5),
		Clique(4),
		Wheel(4),
		Fig1a(),
		Circulant(6, 1, 2),
		RandomDigraph(6, 0.4, 11),
		RandomDigraph(7, 0.3, 5),
	}
	for gi, g := range graphs {
		for v := 0; v < g.N(); v++ {
			for _, excl := range []Set{EmptySet, SetOf((v + 1) % g.N())} {
				for _, simple := range []bool{false, true} {
					want, err := g.RedundantPathsTo(v, excl, 0)
					travels := Path.IsRedundant
					if simple {
						want, err = simplePathKeys(g, v, excl)
						travels = Path.IsSimple
					}
					if err != nil {
						t.Fatal(err)
					}
					var paths []Path
					got := make(map[string]struct{})
					count, err := g.WalkRedundantPathsTo(v, excl, simple, 0, func(w *RedundantWalk) {
						if int(w.ID) != len(paths) || w.Suffix >= w.ID {
							t.Fatalf("graph %d v=%d: visit %d numbered %d with suffix %d", gi, v, len(paths), w.ID, w.Suffix)
						}
						p := Path{w.Head}
						if w.Suffix >= 0 {
							p = append(p, paths[w.Suffix]...)
						}
						paths = append(paths, p)
						got[p.Key()] = struct{}{}
						if w.Simple != p.IsSimple() {
							t.Errorf("graph %d: %v Simple = %v", gi, p, w.Simple)
						}
						for x := 0; x < g.N(); x++ {
							if w.ExtendsBy(x) != travels(p.Append(x)) {
								t.Errorf("graph %d simple=%v: %v ExtendsBy(%d) = %v", gi, simple, p, x, w.ExtendsBy(x))
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if count != len(paths) || !reflect.DeepEqual(keysSorted(got), keysSorted(want)) {
						t.Errorf("graph %d (%s), v=%d excl=%s simple=%v: %d visits of %d distinct paths, enumeration has %d",
							gi, g.Name(), v, excl, simple, count, len(got), len(want))
					}
				}
			}
		}
	}
}

// simplePathKeys is SimplePathsTo as a key set.
func simplePathKeys(g *Graph, v int, excl Set) (map[string]struct{}, error) {
	paths, err := g.SimplePathsTo(v, excl, 0)
	keys := make(map[string]struct{}, len(paths))
	for _, p := range paths {
		keys[p.Key()] = struct{}{}
	}
	return keys, err
}

// RedundantPathsTo enumerates every redundant path ending at v that avoids
// excl — the set {p in Pr_{V\excl} : ter(p) = v} of Definition 9. The result
// is deduplicated (a sequence decomposable at several split points appears
// once) and returned as a key set. It returns ErrPathBudget if more than
// budget distinct paths exist (budget <= 0 means unlimited).
func (g *Graph) RedundantPathsTo(v int, excl Set, budget int) (map[string]struct{}, error) {
	if excl.Has(v) {
		return map[string]struct{}{}, nil
	}
	// All simple paths ending at v.
	s2, err := g.SimplePathsTo(v, excl, budget)
	if err != nil {
		return nil, err
	}
	// Group second halves by their initial node.
	byInit := make(map[int][]Path)
	for _, p := range s2 {
		byInit[p.Init()] = append(byInit[p.Init()], p)
	}
	out := make(map[string]struct{}, len(s2))
	for m, seconds := range byInit {
		firsts, err := g.SimplePathsTo(m, excl, budget)
		if err != nil {
			return nil, err
		}
		for _, s1 := range firsts {
			for _, sp := range seconds {
				whole := make(Path, 0, len(s1)+len(sp)-1)
				whole = append(whole, s1...)
				whole = append(whole, sp[1:]...)
				out[whole.Key()] = struct{}{}
				if budget > 0 && len(out) > budget {
					return nil, ErrPathBudget
				}
			}
		}
	}
	return out, nil
}

// Set returns the set of nodes on the path.
func (p Path) Set() Set { return SetOf(p...) }
