package iterative

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

func val(from, to, round int, x float64) transport.Message {
	return transport.Message{From: from, To: to, Payload: ValPayload{Round: round, Value: x}}
}

// TestIterativeUnboundedRounds: Scenario.Rounds has no upper bound, so the
// round block must not be sized by it. A machine asked for 2^30 rounds is
// built and started in kilobytes.
func TestIterativeUnboundedRounds(t *testing.T) {
	g := graph.Clique(5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	m, err := NewMachine(g, 1, 0, 1<<30, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, g)
	m.Start(out)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if len(out.Messages()) != 4 {
		t.Errorf("start sent %d messages, want 4", len(out.Messages()))
	}
	if len(m.vals) != eagerRounds*4 {
		t.Errorf("%d cells at start, want %d", len(m.vals), eagerRounds*4)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("built and started in %v, %d bytes", elapsed, bytes)
	if bytes > 16<<10 {
		t.Errorf("construction and start allocated %d bytes, budget 16 KiB", bytes)
	}
}

// TestIterativeBoundedState: what one faulty in-neighbor and a forged
// sender can make a node store is bounded by rounds × indegree cells — the
// size an honest run reaches anyway — and none of it moves the output out
// of the honest hull.
func TestIterativeBoundedState(t *testing.T) {
	const rounds = 2*eagerRounds + 5 // past the eager rows, so the block must grow
	g := graph.Torus(4, 4)           // node 0's in-neighbors: 1, 3, 4, 12
	m, err := NewMachine(g, 1, 0, rounds, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, g)
	m.Start(out)
	hostile := func() {
		for rep := 0; rep < 3; rep++ {
			// Every round there is, latest first, and three there are not.
			for r := rounds + 1; r >= -1; r-- {
				for _, x := range []float64{-1e9, 1e9, 7} {
					m.Deliver(val(12, 0, r, x), out)
				}
			}
		}
		for _, from := range []int{0, 5, 15, -1, 16, 1 << 40} { // self, non-neighbors, out of range
			for r := 1; r <= rounds; r++ {
				m.Deliver(val(from, 0, r, 1e9), out)
			}
		}
	}
	hostile()
	if len(m.counts) != rounds || len(m.vals) != rounds*4 || len(m.seen) != rounds*4 {
		t.Fatalf("block is %d rows, %d values, %d marks; want %d rows of 4", len(m.counts), len(m.vals), len(m.seen), rounds)
	}
	for r := 1; r <= rounds; r++ {
		if m.counts[r-1] != 1 {
			t.Fatalf("round %d counts %d values after one in-neighbor's flood, want 1", r, m.counts[r-1])
		}
	}
	if _, done := m.Output(); done {
		t.Fatal("decided on a single in-neighbor's values")
	}
	// The honest in-neighbors hold 1.0 and 2.0 throughout.
	for r := 1; r <= rounds; r++ {
		m.Deliver(val(1, 0, r, 1.0), out)
		m.Deliver(val(3, 0, r, 2.0), out)
		hostile()
	}
	x, done := m.Output()
	if !done || !(x >= 1 && x <= 2) {
		t.Errorf("output %g (done=%v), want a value in [1,2]", x, done)
	}
	if len(m.History()) != rounds {
		t.Errorf("%d history entries, want %d", len(m.History()), rounds)
	}
	if len(m.vals) != rounds*4 || len(m.counts) != rounds {
		t.Errorf("block grew to %d cells in %d rows, bound is %d in %d", len(m.vals), len(m.counts), rounds*4, rounds)
	}
}

// TestIterativeGrowthKeepsState: a node that walks past its eager rows on
// its own, one round at a time, keeps what it stored before each growth.
func TestIterativeGrowthKeepsState(t *testing.T) {
	const rounds = 4*eagerRounds + 3
	g := graph.Clique(4)
	m, err := NewMachine(g, 1, 0, rounds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.NewCollector(0, g)
	m.Start(out)
	for r := 1; r <= rounds; r++ {
		// Round r+1's first value arrives before round r completes.
		if r < rounds {
			m.Deliver(val(3, 0, r+1, 4), out)
		}
		m.Deliver(val(1, 0, r, 4), out)
		m.Deliver(val(2, 0, r, 4), out)
		if got := len(m.History()); got != r {
			t.Fatalf("after round %d's values: %d rounds completed", r, got)
		}
	}
	// Each round averages x with {4, 4, 4} less one trimmed high value.
	x, done := m.Output()
	if !done || !(x > 3.99 && x <= 4) {
		t.Errorf("output %g (done=%v), want just under 4", x, done)
	}
	if len(m.counts) != rounds {
		t.Errorf("%d rows, want %d", len(m.counts), rounds)
	}
}
