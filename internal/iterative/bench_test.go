package iterative_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestIterativeDeliverAllocBudget: the round block is in place from
// construction, so storing a value allocates nothing; a Deliver that
// completes a round allocates the boxed payload of its broadcast and
// nothing else.
func TestIterativeDeliverAllocBudget(t *testing.T) {
	const rounds = 32
	g := graph.Torus(4, 4) // node 0's in-neighbors: 1, 3, 4, 12; it waits for three
	m, err := iterative.NewMachine(g, 1, 0, rounds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, g)
	m.Start(out) // sizes the collector for one broadcast
	deliver := func(from, round int, x float64) {
		out.Reset()
		m.Deliver(transport.Message{From: from, To: 0, Payload: iterative.ValPayload{Round: round, Value: x}}, out)
	}
	// AllocsPerRun calls its function once to warm up and then runs times:
	// one round per call.
	r := 0
	stored := testing.AllocsPerRun(rounds-1, func() {
		r++
		deliver(1, r, 1)
		deliver(3, r, 2)
		deliver(3, r, 5)          // duplicate
		deliver(7, r, 5)          // not an in-neighbor
		deliver(4, r, math.NaN()) // not a value
	})
	if stored != 0 {
		t.Errorf("%v allocations per five Delivers that complete no round, want 0", stored)
	}
	if n := len(m.History()); r != rounds || n != 0 {
		t.Fatalf("%d rounds fed, %d completed on two values each", r, n)
	}
	r = 0
	completing := testing.AllocsPerRun(rounds-1, func() {
		r++
		deliver(4, r, 1.5)
	})
	if _, done := m.Output(); !done {
		t.Fatal("machine did not decide")
	}
	if completing > 1 {
		t.Errorf("%v allocations per round-completing Deliver, want at most the broadcast payload", completing)
	}
}

// iterTorus1k is the benchmark's sim-iter-1k workload: the iterative
// machine on torus:32:32, f = 1, K = 3, eps = 0.25 (four rounds), inputs
// drawn to three decimals, through the whole Scenario.Run path — the shared
// graph's lookup, machine construction and 16 384 deliveries.
func iterTorus1k(tb testing.TB, seed int64) *repro.Result {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]float64, 1024)
	for i := range inputs {
		inputs[i] = math.Round(rng.Float64()*3*1000) / 1000
	}
	res, err := repro.Scenario{
		Graph: "torus:32:32", Protocol: "iterative", Inputs: inputs,
		F: 1, K: 3, Eps: 0.25, Seed: seed,
	}.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Decided || !res.ValidityOK || res.Steps != 16384 {
		tb.Fatalf("decided=%v validity=%v steps=%d, want a valid decision in 16384 deliveries",
			res.Decided, res.ValidityOK, res.Steps)
	}
	return res
}

// BenchmarkIterTorus1k measures the sim-iter-1k cell end to end.
func BenchmarkIterTorus1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iterTorus1k(b, int64(i))
	}
}

// TestIterativeRunAllocBudget is the allocation fence for the whole
// sim-iter-1k run. What is left is the 4 096 boxed broadcast payloads, the
// result's per-vertex maps and the simulator's fixed handful; the nested
// round maps made it 28 757, and five allocations per machine instead of
// the arena 10 305. Rebuilding torus:32:32 on every run, before the graph
// was shared per spec, made the bytes 1.39 MB against 0.89 MB.
func TestIterativeRunAllocBudget(t *testing.T) {
	const maxAllocs, maxBytes = 8000, 980_000
	iterTorus1k(t, 1) // warm the runtime's size classes, the registries and the graph
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	iterTorus1k(t, 1)
	runtime.ReadMemStats(&after)
	got, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %d bytes per run", got, bytes)
	if got > maxAllocs {
		t.Errorf("%d allocations per run, budget %d", got, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes allocated per run, budget %d", bytes, maxBytes)
	}
}
