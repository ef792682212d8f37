package linkfault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestValidateRejects(t *testing.T) {
	g := graph.Clique(4)
	cases := []struct {
		name   string
		rule   Rule
		errHas string
	}{
		{"unknown kind", Rule{Kind: "sever"}, "unknown link fault kind"},
		{"unknown param", Rule{Kind: KindDrop, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"rate": 1}}, `unknown param "rate"`},
		{"bad prob", Rule{Kind: KindDrop, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"prob": 2}}, "outside [0, 1]"},
		{"negative amount", Rule{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": -1}}, "non-negative"},
		{"no edges", Rule{Kind: KindDrop}, "at least one edge"},
		{"edge range", Rule{Kind: KindDrop, Edges: [][2]int{{0, 9}}, Params: nil}, "outside graph order"},
		{"non-edge", Rule{Kind: KindDrop, Edges: [][2]int{{0, 0}}}, "not an edge"},
		{"drop with nodes", Rule{Kind: KindDrop, Edges: [][2]int{{0, 1}}, Nodes: []int{0}}, "takes edges, not nodes"},
		{"partition with edges", Rule{Kind: KindPartition, Edges: [][2]int{{0, 1}}, Nodes: []int{0}}, "takes nodes, not edges"},
		{"partition empty", Rule{Kind: KindPartition}, "non-empty node set"},
		{"partition node range", Rule{Kind: KindPartition, Nodes: []int{7}}, "outside graph order"},
		{"negative heal", Rule{Kind: KindPartition, Nodes: []int{0}, Params: map[string]float64{"heal": -2}}, "non-negative"},
		{"NaN prob", Rule{Kind: KindDrop, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"prob": math.NaN()}}, "outside [0, 1]"},
		{"NaN amount", Rule{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": math.NaN()}}, "whole number"},
		{"Inf amount", Rule{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": math.Inf(1)}}, "whole number"},
		{"fractional amount", Rule{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": 2.5}}, "whole number"},
		{"huge amount", Rule{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": 1e300}}, "whole number"},
		{"NaN heal", Rule{Kind: KindPartition, Nodes: []int{0}, Params: map[string]float64{"heal": math.NaN()}}, "whole number"},
		{"Inf heal", Rule{Kind: KindPartition, Nodes: []int{0}, Params: map[string]float64{"heal": math.Inf(1)}}, "whole number"},
		{"fractional heal", Rule{Kind: KindPartition, Nodes: []int{0}, Params: map[string]float64{"heal": 0.5}}, "whole number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(g, []Rule{tc.rule})
			if err == nil {
				t.Fatalf("accepted: %+v", tc.rule)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}
}

func TestNewEmptyIsNil(t *testing.T) {
	s, err := New(graph.Clique(3), nil, 1)
	if err != nil || s != nil {
		t.Fatalf("empty rules: %v %v", s, err)
	}
	var nilSet *Set
	if d, du, de := nilSet.Counts(); d+du+de != 0 {
		t.Error("nil set reports counts")
	}
}

func TestDropAlways(t *testing.T) {
	g := graph.Clique(3)
	s, err := New(g, []Rule{{Kind: KindDrop, Edges: [][2]int{{0, 1}}}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if f := s.Next(0, 1); f.Copies != 0 {
			t.Fatalf("send %d on matched edge not dropped: %+v", i, f)
		}
		if f := s.Next(1, 0); f.Copies != 1 || f.Delay != 0 {
			t.Fatalf("unmatched edge perturbed: %+v", f)
		}
	}
	if d, _, _ := s.Counts(); d != 10 {
		t.Errorf("dropped = %d, want 10", d)
	}
}

func TestDuplicateAndDelayAccumulate(t *testing.T) {
	g := graph.Clique(3)
	s, err := New(g, []Rule{
		{Kind: KindDuplicate, Edges: [][2]int{{0, 1}}},
		{Kind: KindDelay, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"amount": 5}},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := s.Next(0, 1)
	if f.Copies != 2 || f.Delay != 5 {
		t.Fatalf("fate = %+v, want 2 copies delayed 5", f)
	}
	_, du, de := s.Counts()
	if du != 1 || de != 1 {
		t.Errorf("counts = dup %d delay %d", du, de)
	}
}

func TestPartitionMatchesCrossingEdgesAndHeals(t *testing.T) {
	g := graph.Clique(4)
	s, err := New(g, []Rule{{Kind: KindPartition, Nodes: []int{0, 1}, Params: map[string]float64{"heal": 2}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Inside either side of the cut: untouched.
	if f := s.Next(0, 1); f.Copies != 1 {
		t.Fatalf("intra-side edge dropped: %+v", f)
	}
	if f := s.Next(2, 3); f.Copies != 1 {
		t.Fatalf("intra-side edge dropped: %+v", f)
	}
	// Crossing edges drop the first heal sends, then recover — per edge.
	for _, e := range [][2]int{{0, 2}, {3, 1}} {
		for i := 0; i < 2; i++ {
			if f := s.Next(e[0], e[1]); f.Copies != 0 {
				t.Fatalf("crossing send %d on %v not dropped: %+v", i, e, f)
			}
		}
		if f := s.Next(e[0], e[1]); f.Copies != 1 {
			t.Fatalf("edge %v did not heal: %+v", e, f)
		}
	}
}

func TestPermanentPartitionNeverHeals(t *testing.T) {
	g := graph.Clique(3)
	s, err := New(g, []Rule{{Kind: KindPartition, Nodes: []int{0}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if f := s.Next(0, 2); f.Copies != 0 {
			t.Fatalf("permanent partition healed at send %d", i)
		}
	}
}

// TestSeededDeterminismPerEdge pins the core contract: the fate of the
// k-th send on an edge depends only on (seed, rules, edge, k), not on the
// interleaving of other edges' sends.
func TestSeededDeterminismPerEdge(t *testing.T) {
	g := graph.Clique(3)
	rules := []Rule{
		{Kind: KindDrop, Edges: [][2]int{{0, 1}, {1, 2}}, Params: map[string]float64{"prob": 0.5}},
		{Kind: KindDuplicate, Edges: [][2]int{{0, 1}}, Params: map[string]float64{"prob": 0.5}},
	}
	a, err := New(g, rules, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, rules, 42)
	if err != nil {
		t.Fatal(err)
	}
	var seqA, seqB []Fate
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Next(0, 1))
	}
	// Interleave another edge's sends on b: the 0->1 stream must not move.
	for i := 0; i < 200; i++ {
		b.Next(1, 2)
		seqB = append(seqB, b.Next(0, 1))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("send %d fate drifted under interleaving: %+v vs %+v", i, seqA[i], seqB[i])
		}
	}
	// A different seed must produce a different stream.
	c, _ := New(g, rules, 43)
	same := true
	for i := 0; i < 200; i++ {
		if c.Next(0, 1) != seqA[i] {
			same = false
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical fate streams")
	}
}

func TestDefaultsAndKinds(t *testing.T) {
	for _, k := range Kinds() {
		defs, err := Defaults(k)
		if err != nil {
			t.Fatal(err)
		}
		if Doc(k) == "" {
			t.Errorf("kind %q has no doc", k)
		}
		_ = defs
	}
	if _, err := Defaults("sever"); err == nil {
		t.Error("unknown kind accepted")
	}
}
