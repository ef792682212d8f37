package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// nilLinkDriver is a tcpNetwork that hands vertex 1 no Outbound, so
// node.New fails after the spec validated and every listener is bound.
type nilLinkDriver struct{ *tcpNetwork }

func (d nilLinkDriver) link(id int) node.Outbound {
	if id == 1 {
		return nil
	}
	return d.tcpNetwork.link(id)
}

// TestRunReleasesListenersOnEarlyReturn is the regression fence for the
// one-shot listener leak: an invalid spec must not construct the driver at
// all, and a failure after construction (here node.New) must close every
// listener the driver bound.
func TestRunReleasesListenersOnEarlyReturn(t *testing.T) {
	const n = 4
	g := graph.Clique(n)
	spec := Spec{Graph: g, Honest: graph.FullSet(n)}
	for i := 0; i < n; i++ {
		spec.Handlers = append(spec.Handlers, sim.Handler(&adversary.Silent{NodeID: i}))
	}

	built := 0
	truncated := spec
	truncated.Handlers = spec.Handlers[:n-1]
	_, err := run(context.Background(), truncated, func(g *graph.Graph) (transportDriver, error) {
		built++
		return newTCPNetwork(g)
	})
	if err == nil {
		t.Fatal("truncated handler list was accepted")
	}
	if built != 0 {
		t.Fatalf("invalid spec constructed the driver %d time(s)", built)
	}

	var addrs []string
	_, err = run(context.Background(), spec, func(g *graph.Graph) (transportDriver, error) {
		d, err := newTCPNetwork(g)
		if err != nil {
			return nil, err
		}
		tn := d.(*tcpNetwork)
		for _, o := range tn.vertices {
			addrs = append(addrs, o.mux.cfg.Listener.Addr().String())
		}
		return nilLinkDriver{tn}, nil
	})
	if err == nil {
		t.Fatal("run succeeded with a vertex that has no outbound")
	}
	if len(addrs) != n {
		t.Fatalf("driver bound %d listeners, want %d", len(addrs), n)
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, 2*time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts after the failed run", addr)
		}
	}
}
