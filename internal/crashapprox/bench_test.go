package crashapprox_test

import (
	"testing"

	"repro/internal/crashapprox"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchmarkCrashApprox measures one full honest execution per op, set-up
// included — after the first op, a hit on the path tables the runs before
// left in the shared cache, as for every run after a graph's first — with
// abacsim's defaults: f=1, inputs i mod 4 (so K = 3),
// eps = 0.1, five rounds. clique:8 is the densest graph the algorithm
// decides on (13 700 simple paths end at each vertex, 547 960 deliveries);
// fig1b-analog is the graph BW's path tables are measured on.
func BenchmarkCrashApprox(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"clique8", graph.Clique(8)},
		{"fig1b-analog", graph.Fig1bAnalog()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = runHonest(b, tc.g, int64(i))
			}
			b.ReportMetric(float64(steps), "deliveries/op")
		})
	}
}

// runHonest runs every vertex of g honestly and returns the deliveries.
func runHonest(b *testing.B, g *graph.Graph, seed int64) int {
	proto, err := crashapprox.NewProto(g, 1, 3, 0.1, 0)
	if err != nil {
		b.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	for id := range handlers {
		m, err := crashapprox.NewMachine(proto, id, float64(id%4))
		if err != nil {
			b.Fatal(err)
		}
		handlers[id] = m
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Run(); err != nil {
		b.Fatal(err)
	}
	if _, all := r.Outputs(g.Nodes()); !all {
		b.Fatal("not all nodes decided")
	}
	return r.Steps()
}
