package service

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro"
)

// DeployConfig parameterizes an in-process deployment: one daemon per
// graph vertex, all on loopback listeners with ephemeral ports. This is
// the self-host mode behind the load generator and the service tests —
// the same daemons as production, just colocated.
type DeployConfig struct {
	Scenario  repro.Scenario
	Protocols []string
	Linger    time.Duration
	// WithClients/WithHTTP attach the client and observability planes to
	// every daemon (addresses in Deployment.ClientAddrs/HTTPAddrs).
	WithClients bool
	WithHTTP    bool
	// Pprof mounts /debug/pprof on every daemon's observability plane
	// (needs WithHTTP) and enables mutex/block profiling.
	Pprof bool
}

// Deployment is a running in-process daemon fleet.
type Deployment struct {
	Daemons     []*Daemon
	ClientAddrs []string
	HTTPAddrs   []string
}

// Deploy builds and starts a full fleet for the scenario's graph.
func Deploy(ctx context.Context, cfg DeployConfig) (*Deployment, error) {
	g, _, err := cfg.Scenario.Materialize()
	if err != nil {
		return nil, err
	}
	n := g.N()
	peerLs := make([]net.Listener, n)
	addrs := make([]string, n)
	cleanup := func() {
		for _, l := range peerLs {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		if peerLs[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			cleanup()
			return nil, fmt.Errorf("service: deploy: %w", err)
		}
		addrs[i] = peerLs[i].Addr().String()
	}
	// Every daemon gets every address: each dials the higher-id
	// neighbours it links with and ignores the rest.
	peers := make(map[int]string, n)
	for i, addr := range addrs {
		peers[i] = addr
	}
	dep := &Deployment{Daemons: make([]*Daemon, n)}
	for i := 0; i < n; i++ {
		dcfg := Config{
			ID:           i,
			Scenario:     cfg.Scenario,
			Protocols:    cfg.Protocols,
			PeerListener: peerLs[i],
			Peers:        peers,
			Linger:       cfg.Linger,
			Pprof:        cfg.Pprof,
		}
		if cfg.WithClients {
			cl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cleanup()
				dep.Close()
				return nil, fmt.Errorf("service: deploy: %w", err)
			}
			dcfg.ClientListener = cl
			dep.ClientAddrs = append(dep.ClientAddrs, cl.Addr().String())
		}
		if cfg.WithHTTP {
			hl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cleanup()
				dep.Close()
				return nil, fmt.Errorf("service: deploy: %w", err)
			}
			dcfg.HTTPListener = hl
			dep.HTTPAddrs = append(dep.HTTPAddrs, hl.Addr().String())
		}
		d, err := New(dcfg)
		if err != nil {
			cleanup()
			dep.Close()
			return nil, err
		}
		dep.Daemons[i] = d
	}
	peerLs = nil // ownership passed to the daemons
	for _, d := range dep.Daemons {
		d.Start(ctx)
	}
	return dep, nil
}

// Close tears every daemon down immediately.
func (dep *Deployment) Close() {
	var wg sync.WaitGroup
	for _, d := range dep.Daemons {
		if d == nil {
			continue
		}
		wg.Add(1)
		go func(d *Daemon) {
			defer wg.Done()
			d.Close()
		}(d)
	}
	wg.Wait()
}
