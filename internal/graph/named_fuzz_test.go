package graph

import (
	"testing"
)

// FuzzNamed drives the spec parser with arbitrary strings: it must either
// return an error or a well-formed graph within the supported order range —
// never panic, never allocate an absurd graph. The corpus seeds every
// grammar form plus near-miss malformations.
func FuzzNamed(f *testing.F) {
	seeds := []string{
		"clique:5", "clique:1", "cycle:3", "cycle:1", "wheel:4", "wheel:2", "fig1a", "fig1b", "fig1b-analog",
		"circulant:7:1,2", "circulant:1:1", "random:6:0.5:42", "random:1:1:1",
		"torus:2:2", "torus:2:5", "kregular:2:1:1", "expander:3:1:1",
		"clique:-1", "clique:99999999999999999999", "wheel:1",
		"circulant:5:", "circulant:5:1,,2", "random:5:NaN:1", "random:5:1e308:1",
		":::", "clique:5:5", "random:5:0.5:9223372036854775807", "circulant:5:-1000000",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := Named(spec)
		if err != nil {
			if g != nil {
				t.Fatalf("Named(%q) returned both a graph and error %v", spec, err)
			}
			return
		}
		if g.N() < 1 || g.N() > MaxNodes {
			t.Fatalf("Named(%q) built order %d outside [1,%d]", spec, g.N(), MaxNodes)
		}
		if g.M() < 0 || g.M() > g.N()*(g.N()-1) {
			t.Fatalf("Named(%q) has impossible edge count %d", spec, g.M())
		}
		// Accepted specs must parse identically when round-tripped through
		// the same string (the parser is a pure function).
		again, err := Named(spec)
		if err != nil {
			t.Fatalf("Named(%q) flapped: %v", spec, err)
		}
		if len(again.SortedEdges()) != len(g.SortedEdges()) {
			t.Fatalf("Named(%q) nondeterministic", spec)
		}
	})
}
