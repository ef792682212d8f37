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
	inputs, opts, spec, err := s.clusterSpec()
	if err != nil {
		return nil, err
	}
	spec.Observer = obs
	outcome, err := run(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Outputs:      outcome.Outputs,
		Honest:       spec.Honest,
		Decided:      outcome.Decided,
		Steps:        outcome.Deliveries,
		MessagesSent: outcome.Sent,
		ByKind:       outcome.ByKind,
		Histories:    outcome.Histories,
		Vectors:      outcome.Vectors,
		LinkStats:    linkStats(spec.LinkFaults),
	}
	res.finish(inputs, opts.Eps)
	return res, nil
}

// clusterSpec validates the scenario for live execution and materializes
// its inputs, normalized options and handler set.
func (s Scenario) clusterSpec() ([]float64, Options, cluster.Spec, error) {
	var zero cluster.Spec
	if err := s.validateForCluster(); err != nil {
		return nil, Options{}, zero, err
	}
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, Options{}, zero, err
	}
	build, err := ProtocolBuilder(s.Protocol)
	if err != nil {
		return nil, Options{}, zero, err
	}
	opts := s.options()
	opts.normalize(inputs)
	factory, err := build(g, inputs, opts)
	if err != nil {
		return nil, Options{}, zero, err
	}
	handlers, honest, err := buildHandlers(g, inputs, opts, factory)
	if err != nil {
		return nil, Options{}, zero, err
	}
	links, err := buildLinkFaults(g, opts)
	if err != nil {
		return nil, Options{}, zero, err
	}
	return inputs, opts, cluster.Spec{Graph: g, Handlers: handlers, Honest: honest, LinkFaults: links}, nil
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
