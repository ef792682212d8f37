package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"weak"
)

func TestMarshalRoundTrip(t *testing.T) {
	for _, g := range []*Graph{Clique(4), DirectedCycle(5), Fig1b(), Wheel(4)} {
		var buf bytes.Buffer
		if err := g.Marshal(&buf); err != nil {
			t.Fatalf("Marshal(%s): %v", g, err)
		}
		back, err := Unmarshal(&buf)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", g, err)
		}
		if back.N() != g.N() || !reflect.DeepEqual(back.SortedEdges(), g.SortedEdges()) {
			t.Errorf("round trip mismatch for %s", g)
		}
		if back.Name() != g.Name() {
			t.Errorf("name lost: %q != %q", back.Name(), g.Name())
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"edge first":     "e 0 1\nn 2\n",
		"double order":   "n 2\nn 3\n",
		"bad order":      "n zero\n",
		"order range":    fmt.Sprintf("n %d\n", MaxNodes+1),
		"bad edge arity": "n 2\ne 0\n",
		"bad edge node":  "n 2\ne 0 5\n",
		"self loop":      "n 2\ne 1 1\n",
		"unknown":        "n 2\nx 1 2\n",
	}
	for name, in := range cases {
		if _, err := Unmarshal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestUnmarshalSkipsBlanksAndComments(t *testing.T) {
	in := "# my graph\n\n  \nn 3\ne 0 1\n# trailing\ne 1 2\n"
	g, err := Unmarshal(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "my graph" || g.M() != 2 {
		t.Errorf("got %s name=%q", g, g.Name())
	}
}

func TestDOT(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.AddBoth(1, 2)
	dot := g.DOT()
	if !strings.Contains(dot, "0 -> 1;") {
		t.Errorf("missing directed edge: %s", dot)
	}
	if !strings.Contains(dot, "1 -> 2 [dir=both];") {
		t.Errorf("missing bidirected edge: %s", dot)
	}
	if strings.Contains(dot, "2 -> 1") {
		t.Errorf("bidirected pair drawn twice: %s", dot)
	}
}

func TestNamedSpecs(t *testing.T) {
	good := map[string]int{
		"clique:5":        5,
		"cycle:3":         3,
		"wheel:4":         5,
		"fig1a":           5,
		"fig1b":           14,
		"fig1b-analog":    8,
		"circulant:7:1,2": 7,
		"random:6:0.5:42": 6,
	}
	for spec, n := range good {
		g, err := Named(spec)
		if err != nil {
			t.Errorf("Named(%q): %v", spec, err)
			continue
		}
		if g.N() != n {
			t.Errorf("Named(%q).N() = %d, want %d", spec, g.N(), n)
		}
	}
	// Smallest square torus that exceeds the build's node limit.
	torusSide := 1
	for torusSide*torusSide <= MaxNodes {
		torusSide++
	}
	bad := []string{"", "nope", "clique", "clique:x", "circulant:5", "circulant:5:a", "random:5", "random:5:x:1", "random:5:0.5:x",
		// Bounds and arity hardening: these must error, never panic or
		// attempt a giant allocation.
		"clique:0", "clique:-3", fmt.Sprintf("clique:%d", MaxNodes+1), "clique:999999999", "cycle:0",
		"wheel:1", "wheel:0", fmt.Sprintf("wheel:%d", MaxNodes), "fig1a:2", "clique:5:9",
		"circulant:0:1", "circulant:5:1,2:3", "random:5:1.5:1", "random:5:-0.1:1", "random:5:NaN:1", "random:5:0.5:1:extra",
		"torus:1:4", fmt.Sprintf("torus:2:%d", MaxNodes+2), fmt.Sprintf("torus:%d:%d", torusSide, torusSide), "torus:2", "torus:2:3:4", "torus:x:2",
		"torus:3037000500:3037000500", // rows*cols overflows int; must error, not panic
		fmt.Sprintf("kregular:%d:2:1", MaxNodes+1), fmt.Sprintf("expander:%d:2:1", MaxNodes+2),
		"kregular:5:0:1", "kregular:5:5:1", "kregular:5:x:1", "kregular:5:2", "kregular:0:1:1",
		"expander:5:0:1", "expander:5:3:1", "expander:4:2:1", "expander:5:2", "expander:5:x:1"}
	for _, spec := range bad {
		if _, err := Named(spec); err == nil {
			t.Errorf("Named(%q) should fail", spec)
		}
	}
}

func TestNamedSpecsCatalog(t *testing.T) {
	specs := NamedSpecs()
	if len(specs) != 11 {
		t.Fatalf("NamedSpecs() lists %d forms, want 11", len(specs))
	}
	// Every catalog line's head must be a real spec form.
	for _, line := range specs {
		head := strings.Fields(line)[0]
		head = strings.NewReplacer("<n>", "5", "<k>", "4", "<d1,d2,...>", "1,2", "<p>", "0.5", "<seed>", "1",
			"<rows>", "2", "<cols>", "3", "<d>", "2").Replace(head)
		if _, err := Named(head); err != nil {
			t.Errorf("catalog form %q does not parse (as %q): %v", line, head, err)
		}
	}
}

// Marshal writes the graph in a small line-oriented text format:
//
//	# optional comment lines
//	n <order>
//	e <from> <to>
//
// The format round-trips through Unmarshal.
func (g *Graph) Marshal(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.name != "" {
		fmt.Fprintf(bw, "# %s\n", g.name)
	}
	fmt.Fprintf(bw, "n %d\n", g.n)
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// SortedEdges returns the edges formatted "u->v", sorted, for stable test
// comparisons.
func (g *Graph) SortedEdges() []string {
	es := g.Edges()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%d->%d", e[0], e[1])
	}
	sort.Strings(out)
	return out
}

// TestNamedSharedPerSpec: SharedNamed hands every caller of a spec the graph
// Named builds — same name, order and edges — and one graph while any caller
// holds it: goroutines racing on a spec nobody holds yet all get the one
// their race built, and a later caller gets it too.
func TestNamedSharedPerSpec(t *testing.T) {
	for _, spec := range []string{"fig1a", "torus:4:5", "random:9:0.4:7"} {
		want, err := Named(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Graph, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if got[i], err = SharedNamed(spec); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		later, err := SharedNamed(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if g != later {
				t.Errorf("%s: goroutine %d got another graph than a later caller", spec, i)
			}
		}
		if later.Name() != want.Name() || later.N() != want.N() || !reflect.DeepEqual(later.Edges(), want.Edges()) {
			t.Errorf("%s: shared graph %s, Named builds %s", spec, later, want)
		}
	}
}

// TestNamedSharedBadSpec: a bad spec returns Named's error and caches
// nothing — the most recently used graph stays the recent one.
func TestNamedSharedBadSpec(t *testing.T) {
	recent := func() weak.Pointer[Graph] {
		g, err := SharedNamed("wheel:7")
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(g)
	}()
	for _, spec := range []string{"wheel:1", "torus:0:3", "clique:4:2", "nope"} {
		_, want := Named(spec)
		g, err := SharedNamed(spec)
		if g != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("SharedNamed(%q) = %v, %v; Named says %v", spec, g, err, want)
		}
	}
	runtime.GC()
	if recent.Value() == nil {
		t.Error("a bad spec displaced the most recently used graph")
	}
}
