package repro_test

import (
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/seedmix"
	"repro/internal/sim"
)

// TestFaultOutsideGraphRefused: every simulator face refuses a fault list
// the graph cannot carry, in the words Scenario uses — a fault on a vertex
// the graph lacks is never silently dropped, whatever its kind.
func TestFaultOutsideGraphRefused(t *testing.T) {
	g := repro.Clique(4)
	inputs := []float64{0, 1, 2, 3}
	for _, name := range repro.Protocols() {
		for _, c := range []struct {
			faults []repro.FaultSpec
			want   string
		}{
			{[]repro.FaultSpec{{Node: 99, Kind: "gremlin"}}, "gremlin"},
			{[]repro.FaultSpec{{Node: 99, Kind: "silent"}}, "fault node 99 outside graph order 4"},
			{[]repro.FaultSpec{{Node: -1, Kind: "silent"}}, "fault node -1 outside graph order 4"},
			{[]repro.FaultSpec{{Node: 1, Kind: "silent"}, {Node: 1, Kind: "noise"}}, "node 1 has two fault entries"},
		} {
			res, err := protocol(t, name)(g, inputs, repro.Options{Seed: 1, Faults: c.faults})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s with faults %+v: got %v (result %+v), want an error naming %q", name, c.faults, err, res, c.want)
			}
		}
	}
}

// TestServiceArmsOneShotMachines pins the one arming path: for every
// protocol with a builder, the service tier's machine for each vertex of an
// instance is the machine the one-shot runtimes arm at that instance's seed
// — same dynamic type, adversary-wrapped on exactly the faulty vertices,
// same first sends — and both paths' link-fault sets draw the same fates.
// Vertex 1 tampers and vertex 2 sprays noise until it crashes, or, where
// the protocol refuses those kinds, runs the nearest kinds it accepts.
func TestServiceArmsOneShotMachines(t *testing.T) {
	base := repro.Scenario{
		Graph:      "clique:4",
		Inputs:     []float64{0, 1, 2, 3},
		Seed:       11,
		LinkFaults: []repro.LinkFault{{Kind: "duplicate", Edges: [][2]int{{0, 3}, {3, 0}}, Params: map[string]float64{"prob": 0.5}}},
	}
	crashAfter5 := func(compose ...repro.Mutation) repro.FaultSpec {
		return repro.FaultSpec{Node: 2, Kind: "crash", Params: map[string]float64{"after": 5}, Compose: compose}
	}
	faults := map[string][]repro.FaultSpec{
		"aba":         {{Node: 1, Kind: "equivocate"}, crashAfter5(repro.Mutation{Kind: "replay"})},
		"crashapprox": {{Node: 1, Kind: "silent"}, crashAfter5()},
		"iterative":   {{Node: 1, Kind: "split"}, crashAfter5(repro.Mutation{Kind: "noise"})},
	}
	faulty := map[int]bool{1: true, 2: true}
	for _, name := range repro.Protocols() {
		if _, err := repro.ProtocolBuilder(name); err != nil {
			continue
		}
		s := base
		s.Protocol = name
		s.Faults = faults[name]
		if s.Faults == nil {
			s.Faults = []repro.FaultSpec{{Node: 1, Kind: "tamper"}, crashAfter5(repro.Mutation{Kind: "noise"})}
		}
		fac, err := repro.NewInstanceFactory(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := fac.Graph()
		for _, inst := range []uint64{0, 3} {
			one := s
			one.Seed = seedmix.Mix(s.Seed, int64(inst))
			handlers, links, err := one.LiveMachines()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v, want := range handlers {
				got, err := fac.HandlerFor(inst, v)
				if err != nil {
					t.Fatalf("%s instance %d vertex %d: %v", name, inst, v, err)
				}
				if reflect.TypeOf(got) != reflect.TypeOf(want) {
					t.Errorf("%s instance %d vertex %d: service arms %T, one-shot %T", name, inst, v, got, want)
				}
				if wrapped := reflect.TypeOf(want).Elem().PkgPath() == "repro/internal/adversary"; wrapped != faulty[v] {
					t.Errorf("%s vertex %d: %T is adversary-wrapped = %v, faulty = %v", name, v, want, wrapped, faulty[v])
				}
				wantOut, gotOut := sim.NewCollector(v, g), sim.NewCollector(v, g)
				want.Start(wantOut)
				got.Start(gotOut)
				if !reflect.DeepEqual(gotOut.Messages(), wantOut.Messages()) {
					t.Errorf("%s instance %d vertex %d: first sends differ\nservice  %v\none-shot %v", name, inst, v, gotOut.Messages(), wantOut.Messages())
				}
			}
			facLinks, err := fac.LinkFaultsFor(inst)
			if err != nil {
				t.Fatal(err)
			}
			copies := 0
			for _, e := range g.Edges() {
				for k := 0; k < 16; k++ {
					want, got := links.Next(e[0], e[1]), facLinks.Next(e[0], e[1])
					if got != want {
						t.Fatalf("%s instance %d edge %v send %d: service fate %+v, one-shot %+v", name, inst, e, k, got, want)
					}
					copies += want.Copies
				}
			}
			if copies == 16*len(g.Edges()) {
				t.Fatalf("%s instance %d: the duplicate rule never fired; the fate comparison is vacuous", name, inst)
			}
		}
	}
}
