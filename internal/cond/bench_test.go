package cond

import (
	"testing"

	"repro/internal/graph"
)

func BenchmarkCheck3ReachFig1a(b *testing.B) {
	g := graph.Fig1a()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := Check3Reach(g, 1); !ok {
			b.Fatal("must hold")
		}
	}
}

func BenchmarkCheck3ReachFig1bAnalog(b *testing.B) {
	g := graph.Fig1bAnalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := Check3Reach(g, 1); !ok {
			b.Fatal("must hold")
		}
	}
}

// BenchmarkCheck3ReachScale is the E25 ladder: f = 1 from the set-up path's
// sizes (fig1a, clique:8) through the order at which the table-based checker
// stopped (64) to the 512-vertex E14 rung.
func BenchmarkCheck3ReachScale(b *testing.B) {
	for _, spec := range []string{
		"fig1a", "clique:8", "torus:4:4", "torus:4:8", "torus:8:8", "circulant:64:1,2,3", "clique:64",
		"torus:8:16", "torus:16:16", "torus:16:32",
	} {
		g, err := graph.Named(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := Check3Reach(g, 1); !ok {
					b.Fatal("must hold")
				}
			}
		})
	}
}

func BenchmarkCheckBCS(b *testing.B) {
	g := graph.Fig1a()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := CheckBCS(g, 1); !ok {
			b.Fatal("must hold")
		}
	}
}

func BenchmarkHasFCover(b *testing.B) {
	paths := []graph.Set{
		graph.SetOf(0, 1, 2), graph.SetOf(1, 3), graph.SetOf(2, 4),
		graph.SetOf(1, 5), graph.SetOf(3, 6, 1),
	}
	allowed := graph.FullSet(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !HasFCover(paths, 2, allowed) {
			b.Fatal("cover must exist")
		}
	}
}

func BenchmarkCoverablePrefix(b *testing.B) {
	paths := make([]graph.Set, 64)
	for i := range paths {
		paths[i] = graph.SetOf(i%6, 6+(i%2))
	}
	allowed := graph.FullSet(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoverablePrefix(paths, 1, allowed)
	}
}

func BenchmarkTheorem5Fig1a(b *testing.B) {
	g := graph.Fig1a()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := CheckTheorem5(g, 1); !rep.Ok() {
			b.Fatal(rep.Failure)
		}
	}
}
