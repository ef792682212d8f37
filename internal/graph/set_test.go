package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := SetOf(1, 3, 5)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, v := range []int{1, 3, 5} {
		if !s.Has(v) {
			t.Errorf("Has(%d) = false", v)
		}
	}
	for _, v := range []int{0, 2, 4, 6} {
		if s.Has(v) {
			t.Errorf("Has(%d) = true", v)
		}
	}
	if got := s.Remove(3); got.Has(3) || got.Count() != 2 {
		t.Errorf("Remove(3) = %s", got)
	}
	if got := s.Add(3); got != s {
		t.Errorf("Add of existing member changed set: %s", got)
	}
	if s.String() != "{1,3,5}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := SetOf(0, 1, 2), SetOf(2, 3)
	tests := []struct {
		name string
		got  Set
		want []int
	}{
		{"union", a.Union(b), []int{0, 1, 2, 3}},
		{"intersect", a.Intersect(b), []int{2}},
		{"minus", a.Minus(b), []int{0, 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.got.Members(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
	if !a.Intersects(b) || a.Intersects(SetOf(5)) {
		t.Error("Intersects wrong")
	}
	if !a.Contains(SetOf(0, 2)) || a.Contains(b) {
		t.Error("Contains wrong")
	}
}

func TestFullSet(t *testing.T) {
	if got := FullSet(4).Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("FullSet(4) = %v", got)
	}
	if FullSet(0) != EmptySet {
		t.Error("FullSet(0) not empty")
	}
	if FullSet(64).Count() != 64 {
		t.Errorf("FullSet(64).Count() = %d", FullSet(64).Count())
	}
}

func TestSetMinAndForEach(t *testing.T) {
	if EmptySet.Min() != -1 {
		t.Error("empty Min should be -1")
	}
	if SetOf(7, 2, 9).Min() != 2 {
		t.Error("Min wrong")
	}
	var seen []int
	SetOf(4, 1, 6).ForEach(func(v int) bool {
		seen = append(seen, v)
		return v != 4 // stop after 4
	})
	if !reflect.DeepEqual(seen, []int{1, 4}) {
		t.Errorf("ForEach early stop: %v", seen)
	}
}

// TestSetQuickAgainstMap cross-checks bitmask set algebra against a
// map-based reference model with testing/quick.
func TestSetQuickAgainstMap(t *testing.T) {
	type model struct {
		bits Set
		ref  map[int]bool
	}
	build := func(vals []uint16) model {
		m := model{ref: make(map[int]bool)}
		for _, v := range vals {
			node := int(v) % MaxNodes
			m.bits = m.bits.Add(node)
			m.ref[node] = true
		}
		return m
	}
	f := func(avals, bvals []uint16) bool {
		a, b := build(avals), build(bvals)
		union := a.bits.Union(b.bits)
		inter := a.bits.Intersect(b.bits)
		minus := a.bits.Minus(b.bits)
		for v := 0; v < MaxNodes; v++ {
			if union.Has(v) != (a.ref[v] || b.ref[v]) {
				return false
			}
			if inter.Has(v) != (a.ref[v] && b.ref[v]) {
				return false
			}
			if minus.Has(v) != (a.ref[v] && !b.ref[v]) {
				return false
			}
		}
		return union.Count() == len(unionMap(a.ref, b.ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func unionMap(a, b map[int]bool) map[int]bool {
	u := make(map[int]bool)
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

func TestSubsetsEnumeration(t *testing.T) {
	var got []string
	Subsets(SetOf(0, 1, 2), 2, func(s Set) bool {
		got = append(got, s.String())
		return true
	})
	want := []string{"{}", "{0}", "{0,1}", "{0,2}", "{1}", "{1,2}", "{2}"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Subsets = %v, want %v", got, want)
	}
}

func TestSubsetsCountMatchesBinomial(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 0}, {5, 1}, {5, 2}, {6, 3}, {8, 2}, {4, 4}} {
		count := 0
		Subsets(FullSet(tc.n), tc.k, func(Set) bool { count++; return true })
		if want := CountSubsets(tc.n, tc.k); count != want {
			t.Errorf("n=%d k=%d: enumerated %d, binomial sum %d", tc.n, tc.k, count, want)
		}
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	count := 0
	Subsets(FullSet(10), 3, func(Set) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d calls, want 5", count)
	}
}

// TestSubsetsNegativeK: a negative bound admits no subset; it used to size a
// slice and panic.
func TestSubsetsNegativeK(t *testing.T) {
	for _, k := range []int{-1, -1 << 40} {
		Subsets(FullSet(4), k, func(s Set) bool {
			t.Errorf("Subsets(k=%d) produced %s", k, s)
			return true
		})
	}
}

func TestSubsetsOfSize(t *testing.T) {
	count := 0
	SubsetsOfSize(FullSet(6), 2, func(s Set) bool {
		if s.Count() != 2 {
			t.Fatalf("size %d subset emitted", s.Count())
		}
		count++
		return true
	})
	if count != 15 {
		t.Errorf("C(6,2) = %d, want 15", count)
	}
}

func TestBinomial(t *testing.T) {
	cases := map[[2]int]int{
		{0, 0}: 1, {5, 0}: 1, {5, 5}: 1, {5, 2}: 10, {10, 3}: 120, {6, 7}: 0, {4, -1}: 0,
	}
	for in, want := range cases {
		if got := binomial(in[0], in[1]); got != want {
			t.Errorf("binomial(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
}

func TestPathSetAndMembersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		var nodes []int
		var want Set
		for j := 0; j < rng.Intn(10); j++ {
			v := rng.Intn(MaxNodes)
			nodes = append(nodes, v)
			want = want.Add(v)
		}
		if got := SetOf(nodes...); got != want {
			t.Fatalf("SetOf(%v) = %s, want %s", nodes, got, want)
		}
	}
}
