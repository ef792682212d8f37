package sim_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestRunnerAllocationBudget is the alloc-regression fence for the delivery
// core: a whole clique8 relay execution (runner construction included) must
// stay within a fixed allocation budget per run. The budgets are ~2x the
// measured numbers after the arena/batching refactor (random ~24, fifo ~23,
// bounded ~26 allocs per run, of which 9 are the benchmark handlers
// themselves) and comfortably below the pre-refactor fifo/bounded numbers
// (57/61), so reintroducing per-message index maps or per-invocation boxing
// fails this test long before it shows up in profiles. CI also runs the
// pool/runner benchmarks with -benchmem for visibility.
func TestRunnerAllocationBudget(t *testing.T) {
	g := graph.Clique(8)
	budgets := []struct {
		name   string
		make   func() transport.Policy
		budget float64
	}{
		{"random", func() transport.Policy { return transport.NewRandomPolicy(1) }, 48},
		{"fifo", func() transport.Policy { return transport.FIFOPolicy{} }, 48},
		{"bounded", func() transport.Policy { return transport.NewBoundedDelayPolicy(8, 1) }, 52},
	}
	for _, tc := range budgets {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(10, func() {
				hs := make([]sim.Handler, g.N())
				for j := range hs {
					hs[j] = &benchRelay{id: j, hops: 64}
				}
				r, err := sim.New(sim.Config{Graph: g, Policy: tc.make()}, hs)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.budget {
				t.Errorf("clique8 run allocates %.0f times, budget %.0f", got, tc.budget)
			}
		})
	}
}

// TestPoolChurnAllocFree pins the steady-state guarantee: once a pool has
// reached its in-flight high-water mark, the Add/Take delivery cycle does
// not allocate — for the random path and through the ordered Seq index.
func TestPoolChurnAllocFree(t *testing.T) {
	mk := func() *transport.Pool {
		p := transport.NewPool(nil, transport.NewStats())
		for i := 0; i < 32; i++ {
			p.Add(transport.Message{From: 0, To: 1, Payload: benchRelayPayload(1)})
		}
		return p
	}
	random := mk()
	got := testing.AllocsPerRun(1000, func() {
		m := random.Take(int(random.View().At(0).Seq) % random.View().Len())
		random.Add(m)
	})
	if got != 0 {
		t.Errorf("random churn allocates %.2f per op", got)
	}
	ordered := mk()
	ordered.View().OldestIndex() // build the index
	got = testing.AllocsPerRun(1000, func() {
		m := ordered.Take(ordered.View().OldestIndex())
		ordered.Add(m)
	})
	if got != 0 {
		t.Errorf("ordered churn allocates %.2f per op", got)
	}
}
