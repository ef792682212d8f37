package bw_test

import (
	"context"
	"testing"

	"repro/internal/bw"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestFloodCacheOneEntryPerFlood runs BW on Figure 1(a) over loopback,
// where every COMPLETE a node receives is a copy decoded off the wire with
// an entry slice of its own, and holds the shared flood cache to one entry
// per distinct flood — at most one per MC firing, the only place an honest
// run floods — with at most one identity alias each. A cache keyed by the
// decoded slice's address held one entry per delivery instead.
func TestFloodCacheOneEntryPerFlood(t *testing.T) {
	g := graph.Fig1a()
	inputs := []float64{0, 4, 1, 3, 2}
	proto, err := bw.NewProto(g, 1, 4, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]sim.Handler, g.N())
	machines := make([]*bw.Machine, g.N())
	for i := range handlers {
		if machines[i], err = bw.NewMachine(proto, i, inputs[i]); err != nil {
			t.Fatal(err)
		}
		handlers[i] = machines[i]
	}
	out, err := cluster.RunLoopback(context.Background(),
		cluster.Spec{Graph: g, Handlers: handlers, Honest: graph.FullSet(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Decided {
		t.Fatal("run did not decide")
	}
	fires := 0
	for _, m := range machines {
		fires += m.Snapshot().MCFires
	}
	entries, aliases := bw.FloodCache(proto)
	t.Logf("%d floods (MC firings), %d cache entries, %d aliases, %d COMPLETE sends",
		fires, entries, aliases, out.ByKind["COMPLETE"])
	if entries == 0 || entries > fires {
		t.Errorf("flood cache holds %d entries for %d floods", entries, fires)
	}
	if aliases > entries {
		t.Errorf("flood cache holds %d identity aliases for %d entries", aliases, entries)
	}
}
