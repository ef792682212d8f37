package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestRunReleasesListenersOnEarlyReturn is the regression fence for the
// one-shot listener leak, on both media: an invalid spec must bind
// nothing, and a failure after binding (here the last vertex's listen)
// must close every listener already bound.
func TestRunReleasesListenersOnEarlyReturn(t *testing.T) {
	const n = 4
	spec := Spec{Graph: graph.Clique(n), Honest: graph.FullSet(n)}
	for i := 0; i < n; i++ {
		spec.Handlers = append(spec.Handlers, sim.Handler(&adversary.Silent{NodeID: i}))
	}
	truncated := spec
	truncated.Handlers = spec.Handlers[:n-1]

	var d net.Dialer
	mem := newMemNetwork()
	for _, md := range []medium{
		{name: "tcp", listen: listenTCP, dial: func(ctx context.Context, addr string) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) }},
		{name: "loopback", listen: mem.listen, dial: mem.dial},
	} {
		var addrs []string
		failing := md
		failing.listen = func() (net.Listener, error) {
			if len(addrs) == n-1 {
				return nil, errors.New("listen refused")
			}
			ln, err := md.listen()
			if err == nil {
				addrs = append(addrs, ln.Addr().String())
			}
			return ln, err
		}
		if _, err := run(context.Background(), truncated, failing); err == nil {
			t.Fatalf("%s: truncated handler list was accepted", md.name)
		}
		if len(addrs) != 0 {
			t.Fatalf("%s: invalid spec bound %d listener(s)", md.name, len(addrs))
		}
		if _, err := run(context.Background(), spec, failing); err == nil {
			t.Fatalf("%s: run succeeded though the last listen failed", md.name)
		}
		if len(addrs) != n-1 {
			t.Fatalf("%s: bound %d listeners before the failure, want %d", md.name, len(addrs), n-1)
		}
		for _, addr := range addrs {
			// A bound listener either accepts (tcp: the kernel completes the
			// handshake) or leaves the dial waiting (memory: nobody accepts);
			// a released one refuses at once.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c, err := md.dial(ctx, addr)
			if err == nil {
				c.Close()
			}
			if err == nil || ctx.Err() != nil {
				t.Errorf("%s: listener %s still bound after the failed run", md.name, addr)
			}
			cancel()
		}
	}
}
