package repro

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// This file is the public face of the live node runtime: the same
// Scenario that drives the deterministic simulator can execute as a
// cluster of real nodes — per-vertex event loops exchanging wire-encoded
// frames over an in-process loopback medium or TCP sockets — and come back
// as the same Result type, judged by the same validity and ε-agreement
// criteria. The cross-runtime conformance tests pin exactly that: for
// every registered protocol, a Scenario that passes the checks on the
// simulator passes them on the loopback cluster too.

// RuntimeSim names the in-process deterministic simulator runtime (the
// default); RuntimeLoopback and RuntimeTCP name the live cluster runtimes.
const (
	RuntimeSim      = "sim"
	RuntimeLoopback = "loopback"
	RuntimeTCP      = "tcp"
)

// RuntimeNames lists every execution runtime a Scenario can run on,
// sorted: the cluster transports plus the simulator.
func RuntimeNames() []string {
	names := append(cluster.Runtimes(), RuntimeSim)
	sort.Strings(names)
	return names
}

// RunOn executes the scenario once on the named runtime: "sim" (or "") is
// Scenario.Run on the deterministic simulator; "loopback" and "tcp"
// materialize the scenario as live nodes — one event loop per vertex,
// faulty vertices wrapped by their adversaries, protocol messages
// round-tripping through the wire codec — over an in-process memory network
// or real sockets respectively.
//
// Cluster runs honor ctx cancellation and deadlines (a deadline-less ctx
// gets a 60s default timeout); the simulator runtime checks ctx only at
// the start. A cluster run that times out before every honest vertex
// decides returns Decided false, mirroring undecided simulator quiescence.
func (s Scenario) RunOn(ctx context.Context, runtime string) (*Result, error) {
	return s.RunOnObserved(ctx, runtime, nil)
}

// RunOnObserved is RunOn with a streaming observer attached. On cluster
// runtimes the observer is invoked concurrently from every node's event
// loop and must be goroutine-safe (JSONLObserver is); Event.Step is then
// the node-local delivery count.
func (s Scenario) RunOnObserved(ctx context.Context, runtime string, obs Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch runtime {
	case "", RuntimeSim:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.RunObserved(obs)
	}
	run, err := cluster.ByName(runtime)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	a, err := s.arm()
	if err != nil {
		return nil, err
	}
	handlers, err := a.machines(a.opts.Seed)
	if err != nil {
		return nil, err
	}
	links, err := a.links(a.opts.Seed)
	if err != nil {
		return nil, err
	}
	outcome, err := run(ctx, cluster.Spec{Graph: a.g, Handlers: handlers, Honest: a.honest, LinkFaults: links, Observer: obs})
	if err != nil {
		return nil, err
	}
	return a.result(&Result{
		Outputs:      outcome.Outputs,
		Decided:      outcome.Decided,
		Steps:        outcome.Deliveries,
		MessagesSent: outcome.Sent,
		ByKind:       outcome.ByKind,
	}, handlers, links), nil
}

// arm resolves the scenario for a live runtime, refusing the knobs that
// only mean something on the simulator: what RunOn and InstanceFactory
// arm their machines from.
func (s Scenario) arm() (*armed, error) {
	if err := s.validateForCluster(); err != nil {
		return nil, err
	}
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	build, err := ProtocolBuilder(s.Protocol)
	if err != nil {
		return nil, err
	}
	return arm(g, inputs, s.options(), build)
}

// validateForCluster rejects, eagerly and by name, the scenario knobs that
// only mean something on the central simulator: delivery policies and
// trace recording both manipulate the simulator's message
// pool, which a live cluster does not have. Silently ignoring them would
// replay the wrong experiment.
func (s Scenario) validateForCluster() error {
	if s.Policy != nil {
		return fmt.Errorf("repro: scenario policy %q applies to the sim runtime only (a cluster's schedule is the network's)", s.Policy.Name)
	}
	if s.RecordTrace {
		return fmt.Errorf("repro: recordTrace applies to the sim runtime only (a cluster has no global delivery order to record)")
	}
	if s.Seeds > 1 {
		return fmt.Errorf("repro: seed batches run on the sim runtime (RunBatch); cluster runtimes execute one run")
	}
	return nil
}
