package bw_test

import (
	"runtime"
	"testing"

	"repro/internal/bw"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchmarkBWRoundClique4 measures a full honest K4 execution (all rounds).
func BenchmarkBWRoundClique4(b *testing.B) {
	g := graph.Clique(4)
	proto, err := bw.NewProto(g, 1, 3, 0.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []float64{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handlers := make([]sim.Handler, 4)
		for id := range handlers {
			m, err := bw.NewMachine(proto, id, inputs[id])
			if err != nil {
				b.Fatal(err)
			}
			handlers[id] = m
		}
		r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(int64(i))}, handlers)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachinePrecompute measures the per-node setup (plan tables, path
// enumeration, FIFO requirements) on the two-clique analog. The setup is
// shared by every Proto on the same (G, f), so each iteration builds its
// own, uncached.
func BenchmarkMachinePrecompute(b *testing.B) {
	g := graph.Fig1bAnalog()
	for b.Loop() {
		proto, err := bw.NewProto(g, 1, 1, 0.5, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bw.NewMachineUncached(proto, 0, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoSetup measures what a run pays before its first machine:
// validation and fault-set enumeration.
func BenchmarkProtoSetup(b *testing.B) {
	g := graph.Fig1a()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bw.NewProto(g, 1, 4, 0.25, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// runFig1a is one full honest BW execution on fig1a with f=1, K=4, eps=0.1
// — the sim-bw benchmark cell: shared setup, five machines, all rounds —
// and returns the number of deliveries.
func runFig1a(tb testing.TB, seed int64) int {
	g := graph.Fig1a()
	proto, err := bw.NewProto(g, 1, 4, 0.1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	inputs := []float64{0.1, 3.9, 1.3, 2.7, 0.6}
	handlers := make([]sim.Handler, g.N())
	for id := range handlers {
		m, err := bw.NewMachine(proto, id, inputs[id])
		if err != nil {
			tb.Fatal(err)
		}
		handlers[id] = m
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(seed)}, handlers)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Run(); err != nil {
		tb.Fatal(err)
	}
	if _, all := r.Outputs(g.Nodes()); !all {
		tb.Fatal("not all nodes decided")
	}
	return r.Steps()
}

// BenchmarkBWFig1a measures the sim-bw cell end to end.
func BenchmarkBWFig1a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFig1a(b, int64(i))
	}
}

// TestBWRunAllocBudget is the allocation fence for the round state: one
// full fig1a run divided by its deliveries. Its set-up finds the plan, the
// path tables, their doors and the covers the warm-up run left in the
// shared cache, as every run after a graph's first does. A delivery
// allocates nothing for the path it arrived on — messages name paths by
// path-table entry, and admitting, extending and ordering one are lookups
// in the node's table and the in-edge's column. What is left: one boxed
// payload when the message is relayed, a round's park slab and progress
// bitsets, a COMPLETE's entry list and summary, and the round's clauses —
// one per distinct (S, q, want), each a list of indices into the shared
// candidate covers. The budgets are the measured 0.88 allocations and 91
// bytes plus a tenth, against 0.97 and 93 while every snapshot member held
// its own Verify record and clause subscriptions, each stream grew its own
// park buffer and the node's own floods were summarized entry by entry;
// 1.19 and 112 (1.17 and 111 when first fenced) while a
// FIFO stream buffered COMPLETEs that arrived in order, each content
// listed the streams it came through, and each round grew its
// per-initial-node lists, progress bitsets and Filter-and-Average's order
// by appending; 1.20 and 143 while every run built its own plan, tables,
// doors and covers, 1.20 and 178 while the table also spelled every entry
// out as a path and a key string for relays and COMPLETE entries, 2.1 and
// 257 with a clause per thread holding its own copies of the covers, 4.5
// and 450 when every accepted path cost a key string and every relay a
// copy, and 9.3 and 1 660 when M_v, the FIFO tables and the snapshot
// clauses were keyed by strings and node sets. About an eighth of a node
// set per delivery is part of the bytes (a relayed COMPLETE's tag), so
// that budget moves with the build dimension: 139 bytes measured under
// graph4096, budget 155 (141 and 157 before).
func TestBWRunAllocBudget(t *testing.T) {
	const setBytes = graph.MaxNodes / 8
	const maxAllocs, maxBytes = 0.97, 82 + setBytes/7 // 100 in the default build
	runFig1a(t, 1)                                    // warm the runtime's size classes, the test binary and the plan
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	steps := runFig1a(t, 1)
	runtime.ReadMemStats(&after)
	if steps != 26664 {
		t.Fatalf("fig1a run took %d deliveries, the fenced schedule has 26664", steps)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(steps)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
	t.Logf("%.2f allocations, %.0f bytes per delivery", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.2f allocations per delivery, budget %.2f", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f bytes per delivery, budget %d", bytes, maxBytes)
	}
}
