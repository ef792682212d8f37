package bw

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestPlanSharedByContent: the plan is found by (graph content, budget, f)
// — not by Proto, not by *Graph, not by K, eps or rounds, which are the
// run's. Protos on two graphs built apart share one plan over the shared
// path tables; another f gets its own plan over the same tables, and
// another budget or edge set gets its own tables and plan.
func TestPlanSharedByContent(t *testing.T) {
	proto := func(g *graph.Graph, f int, k, eps float64, budget int) *Proto {
		p, err := NewProto(g, f, k, eps, budget)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := proto(graph.Fig1a(), 1, 4, 0.1, 0)
	b := proto(graph.Wheel(4), 1, 1, 0.5, 0)
	pl := a.getPlan()
	if b.getPlan() != pl {
		t.Fatal("two Protos on equal graphs hold distinct plans")
	}
	if pl.paths != graph.SharedPathTables(graph.Fig1a(), false, DefaultPathBudget) {
		t.Error("the plan is not over the shared path tables")
	}
	if pl.g == a.G || pl.g == b.G {
		t.Error("the plan reads a caller's graph, which the caller may edit")
	}

	cut := graph.Fig1a()
	cut.RemoveEdge(0, 1)
	for _, tc := range []struct {
		name       string
		p          *Proto
		sameTables bool
	}{
		{"f", proto(graph.Fig1a(), 0, 4, 0.1, 0), true},
		{"budget", proto(graph.Fig1a(), 1, 4, 0.1, 1000), false},
		{"edge set", proto(cut, 1, 4, 0.1, 0), false},
	} {
		other := tc.p.getPlan()
		if other == pl {
			t.Errorf("%s: shares fig1a's plan", tc.name)
		}
		if (other.paths == pl.paths) != tc.sameTables {
			t.Errorf("%s: shares fig1a's path tables = %v, want %v", tc.name, other.paths == pl.paths, tc.sameTables)
		}
	}
	runtime.KeepAlive(a)
}

// TestPlanReleased: the plan cache keeps a plan while a Proto holds it, and
// the most recent one besides — no more. After runs on cycle:64 and then on
// fig1a, and a collection, the cycle's plan and its path tables are gone;
// fig1a's, the most recent, is not.
func TestPlanReleased(t *testing.T) {
	run := func(spec string, f int) (weak.Pointer[plan], weak.Pointer[graph.PathTables]) {
		g, err := graph.Named(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProto(g, f, 1, 0.6, 0)
		if err != nil {
			t.Fatal(err)
		}
		handlers := make([]sim.Handler, g.N())
		for v := range handlers {
			if handlers[v], err = NewMachine(p, v, float64(v%2)); err != nil {
				t.Fatal(err)
			}
		}
		r, err := sim.New(sim.Config{Graph: g, Policy: transport.NewRandomPolicy(1)}, handlers)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if _, all := r.Outputs(g.Nodes()); !all {
			t.Fatalf("%s: not every vertex decided", spec)
		}
		return weak.Make(p.plan), weak.Make(p.plan.paths)
	}
	cyclePlan, cycleTables := run("cycle:64", 0)
	figPlan, _ := run("fig1a", 1)
	runtime.GC()
	if cyclePlan.Value() != nil || cycleTables.Value() != nil {
		t.Error("cycle:64's plan or path tables outlived its runs and the next graph's")
	}
	if figPlan.Value() == nil {
		t.Error("the most recently used plan was released")
	}
}
