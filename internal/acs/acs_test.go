package acs_test

import (
	"reflect"
	"testing"

	"repro/internal/aba"
	"repro/internal/acs"
	"repro/internal/graph"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/transport"
)

func runACS(t *testing.T, handlers []sim.Handler, g *graph.Graph, policy string, seed int64) *sim.Runner {
	t.Helper()
	params := map[string]float64{}
	if policy == "bounded" {
		params["bound"] = 4
	}
	pol, err := transport.NewPolicy(policy, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.New(sim.Config{Graph: g, Policy: pol}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func newMachine(t *testing.T, n, f, id int, seed int64, input float64) *acs.Machine {
	t.Helper()
	m, err := acs.New(n, f, id, seed, input)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestACSAllHonestFullSubset: with no faults the protocol commonly decides
// the full vector; whatever it decides must be identical everywhere, of
// size >= n−f, and every agreed value must be a real input.
func TestACSAllHonestFullSubset(t *testing.T) {
	const n, f = 4, 1
	g := graph.Clique(n)
	inputs := []float64{10, 20, 30, 40}
	for _, policy := range []string{"random", "fifo", "lifo", "bounded"} {
		for seed := int64(0); seed < 10; seed++ {
			machines := make([]*acs.Machine, n)
			handlers := make([]sim.Handler, n)
			for i := 0; i < n; i++ {
				machines[i] = newMachine(t, n, f, i, seed, inputs[i])
				handlers[i] = machines[i]
			}
			r := runACS(t, handlers, g, policy, seed)
			if _, decided := r.Outputs(graph.FullSet(n)); !decided {
				t.Fatalf("%s seed %d: not all nodes decided", policy, seed)
			}
			base := machines[0].Vector()
			if len(base) < n-f {
				t.Fatalf("%s seed %d: subset %v smaller than n-f=%d", policy, seed, base, n-f)
			}
			for j, v := range base {
				if v != inputs[j] {
					t.Fatalf("%s seed %d: slot %d carries %v, input was %v", policy, seed, j, v, inputs[j])
				}
			}
			for i := 1; i < n; i++ {
				if !reflect.DeepEqual(machines[i].Vector(), base) {
					t.Fatalf("%s seed %d: vectors differ: %v vs %v", policy, seed, machines[i].Vector(), base)
				}
				if !reflect.DeepEqual(machines[i].Subset(), machines[0].Subset()) {
					t.Fatalf("%s seed %d: subsets differ", policy, seed)
				}
			}
		}
	}
}

type silentHandler struct{ id int }

func (s *silentHandler) ID() int                                { return s.id }
func (s *silentHandler) Start(*sim.Outbox)                      {}
func (s *silentHandler) Deliver(transport.Message, *sim.Outbox) {}
func (s *silentHandler) Output() (float64, bool)                { return 0, false }

// TestACSSilentNodesExcluded: f silent nodes cannot stall the subset —
// honest nodes decide a common subset of size >= n−f that excludes the
// silent origins (their broadcasts never started).
func TestACSSilentNodesExcluded(t *testing.T) {
	const n, f = 7, 2
	g := graph.Clique(n)
	for seed := int64(0); seed < 8; seed++ {
		machines := make([]*acs.Machine, n)
		handlers := make([]sim.Handler, n)
		honest := graph.EmptySet
		for i := 0; i < n-f; i++ {
			machines[i] = newMachine(t, n, f, i, seed, float64(i))
			handlers[i] = machines[i]
			honest = honest.Add(i)
		}
		for i := n - f; i < n; i++ {
			handlers[i] = &silentHandler{id: i}
		}
		r := runACS(t, handlers, g, "random", seed)
		if _, decided := r.Outputs(honest); !decided {
			t.Fatalf("seed %d: honest nodes did not decide", seed)
		}
		base := machines[0].Vector()
		if len(base) < n-f {
			t.Fatalf("seed %d: subset %v smaller than n-f=%d", seed, base, n-f)
		}
		for j := n - f; j < n; j++ {
			if _, in := base[j]; in {
				t.Fatalf("seed %d: silent node %d made the subset %v", seed, j, base)
			}
		}
		for i := 1; i < n-f; i++ {
			if !reflect.DeepEqual(machines[i].Vector(), base) {
				t.Fatalf("seed %d: vectors differ", seed)
			}
		}
	}
}

// TestACSScalarOutputIsSubsetMean: the sim.Handler scalar face reports the
// mean of the agreed subset, bitwise identical across nodes.
func TestACSScalarOutputIsSubsetMean(t *testing.T) {
	const n, f = 4, 1
	g := graph.Clique(n)
	machines := make([]*acs.Machine, n)
	handlers := make([]sim.Handler, n)
	for i := 0; i < n; i++ {
		machines[i] = newMachine(t, n, f, i, 5, float64(i*i))
		handlers[i] = machines[i]
	}
	r := runACS(t, handlers, g, "random", 5)
	outputs, decided := r.Outputs(graph.FullSet(n))
	if !decided {
		t.Fatal("not all nodes decided")
	}
	vec := machines[0].Vector()
	sum := 0.0
	for _, j := range machines[0].Subset() {
		sum += vec[j]
	}
	want := sum / float64(len(vec))
	for i, got := range outputs {
		if got != want {
			t.Fatalf("node %d output %v, want subset mean %v", i, got, want)
		}
	}
}

// TestACSVectorNilBeforeDecision pins the vectorProvider contract.
func TestACSVectorNilBeforeDecision(t *testing.T) {
	m := newMachine(t, 4, 1, 0, 1, 2.5)
	if m.Vector() != nil || m.Subset() != nil {
		t.Fatal("vector/subset non-nil before decision")
	}
	if _, decided := m.Output(); decided {
		t.Fatal("decided before any traffic")
	}
}

// TestACSIgnoresForeignInstances: ABA traffic for instances outside [0,n)
// and RBC slots with foreign tags must be ignored, not crash.
func TestACSIgnoresForeignInstances(t *testing.T) {
	g := graph.Clique(4)
	m := newMachine(t, 4, 1, 0, 1, 2.5)
	col := sim.NewCollector(0, g)
	// A tag other than ValueTag addresses no RBC slot: not even an echo.
	m.Deliver(transport.Message{From: 1, To: 0, Payload: rbc.Msg{
		Phase: rbc.PhaseInit, Origin: 1, Tag: "other", Content: rbc.Num(9),
	}}, col)
	baseline := len(col.Messages())
	if baseline != 0 {
		t.Fatalf("foreign RBC tag produced %d sends", baseline)
	}
	// ABA traffic for instances outside [0,n) must be dropped outright.
	m.Deliver(transport.Message{From: 1, To: 0, Payload: aba.Msg{
		Inst: 99, Round: 1, Phase: aba.PhaseBval, Value: 1,
	}}, col)
	m.Deliver(transport.Message{From: 1, To: 0, Payload: aba.Msg{
		Inst: -1, Round: 1, Phase: aba.PhaseBval, Value: 1,
	}}, col)
	if m.Vector() != nil || len(col.Messages()) != baseline {
		t.Fatal("foreign traffic advanced the machine")
	}
}
