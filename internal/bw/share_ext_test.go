package bw_test

import (
	"testing"

	"repro"
	"repro/internal/bw"
	"repro/internal/graph"
)

// TestPlanSharedByInstances: a daemon mints every vertex's machine of every
// instance through InstanceFactory.HandlerFor, a fresh Proto each time. Over
// 64 pipelined instances, each honest vertex's machines all run on one path
// table, built once, and every machine on one plan.
func TestPlanSharedByInstances(t *testing.T) {
	fac, err := repro.NewInstanceFactory(repro.Scenario{
		Graph: "fig1a", Protocol: "bw", Inputs: []float64{0, 4, 1, 3, 2},
		F: 1, K: 4, Eps: 0.1, Faults: []repro.FaultSpec{{Node: 4, Kind: "tamper"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := fac.Graph().N()
	tables := make([]*graph.PathTable, n)
	plans := make(map[any]bool)
	var live []*bw.Machine
	for inst := uint64(1); inst <= 64; inst++ {
		for v := 0; v < n; v++ {
			h, err := fac.HandlerFor(inst, v)
			if err != nil {
				t.Fatal(err)
			}
			m, honest := h.(*bw.Machine)
			if !honest {
				continue
			}
			live = append(live, m)
			plans[bw.PlanOf(m)] = true
			if tables[v] == nil {
				tables[v] = bw.TableOf(m)
			} else if bw.TableOf(m) != tables[v] {
				t.Fatalf("instance %d vertex %d: a second path table for the vertex", inst, v)
			}
		}
	}
	if len(live) != 64*(n-1) || len(plans) != 1 {
		t.Errorf("%d honest machines on %d plans, want %d on 1", len(live), len(plans), 64*(n-1))
	}
}
