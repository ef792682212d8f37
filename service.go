package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/seedmix"
)

// InstanceFactory is the service tier's bridge into the protocol registry:
// a Scenario materialized once — graph, inputs, normalized options,
// resolved builder — from which per-instance machines are minted on
// demand. Each consensus instance gets its own decorrelated seed
// (seedmix.Mix of the base seed and the instance id), so pipelined
// instances with randomized adversaries or seeded coins do not replay each
// other's streams, while two daemons minting machines for the same
// instance id derive identical per-instance options — the agreement
// protocols' shared-parameter requirement.
type InstanceFactory struct {
	protocol string
	g        *Graph
	inputs   []float64
	opts     Options
	build    BuilderFunc
	honest   NodeSet
}

// NewInstanceFactory materializes the scenario's graph and inputs, resolves
// the protocol's live-runtime builder, and normalizes options — everything
// shared across instances, done once. The scenario's own Protocol is the
// default; NewInstanceFactoryFor overrides it.
func NewInstanceFactory(s Scenario) (*InstanceFactory, error) {
	return NewInstanceFactoryFor(s, s.Protocol)
}

// NewInstanceFactoryFor is NewInstanceFactory with the protocol overridden
// — the daemon uses it to pipeline several protocols over one materialized
// scenario (same graph, inputs and fault plan). Like RunOn it refuses, by
// name, the knobs that only mean something on the simulator.
func NewInstanceFactoryFor(s Scenario, protocol string) (*InstanceFactory, error) {
	if protocol == "" {
		return nil, fmt.Errorf("repro: instance factory needs a protocol (valid values are: %v)", Protocols())
	}
	if err := s.validateForCluster(); err != nil {
		return nil, err
	}
	s.Protocol = protocol
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	build, err := ProtocolBuilder(protocol)
	if err != nil {
		return nil, err
	}
	opts := s.options()
	opts.normalize(inputs)
	honest := graph.EmptySet
	for i := 0; i < g.N(); i++ {
		if _, bad := opts.Faults[i]; !bad {
			honest = honest.Add(i)
		}
	}
	f := &InstanceFactory{protocol: protocol, g: g, inputs: inputs, opts: opts, build: build, honest: honest}
	// Fail at construction, not at the first submit: run the builder once
	// so structural rejections (incomplete graph for the exact tier,
	// n <= 3f, reach violations) surface immediately.
	if _, err := build(g, inputs, f.instOpts(0)); err != nil {
		return nil, err
	}
	return f, nil
}

// Protocol names the factory's protocol.
func (f *InstanceFactory) Protocol() string { return f.protocol }

// Graph returns the materialized topology (shared; do not mutate).
func (f *InstanceFactory) Graph() *Graph { return f.g }

// Inputs returns the materialized input vector (shared; do not mutate).
func (f *InstanceFactory) Inputs() []float64 { return f.inputs }

// Honest is the set of vertices the scenario leaves fault-free.
func (f *InstanceFactory) Honest() NodeSet { return f.honest }

// Eps is the normalized agreement parameter.
func (f *InstanceFactory) Eps() float64 { return f.opts.Eps }

// instOpts derives instance inst's options: the shared normalized options
// with the seed decorrelated per instance.
func (f *InstanceFactory) instOpts(inst uint64) Options {
	opts := f.opts
	opts.Seed = seedmix.Mix(f.opts.Seed, int64(inst))
	return opts
}

// HandlerFor mints vertex id's machine for instance inst, adversary-wrapped
// when the scenario marks the vertex faulty — exactly the machine the
// single-shot cluster path would give that vertex, at the instance's seed.
func (f *InstanceFactory) HandlerFor(inst uint64, id int) (Handler, error) {
	if id < 0 || id >= f.g.N() {
		return nil, fmt.Errorf("repro: instance factory: vertex %d outside graph order %d", id, f.g.N())
	}
	opts := f.instOpts(inst)
	factory, err := f.build(f.g, f.inputs, opts)
	if err != nil {
		return nil, err
	}
	inner, err := factory(id)
	if err != nil {
		return nil, err
	}
	if fl, bad := opts.Faults[id]; bad {
		h, err := adversary.BuildHandler(id, fl.spec(), inner, adversary.NodeSeed(opts.Seed, id))
		if err != nil {
			return nil, fmt.Errorf("repro: fault at node %d: %w", id, err)
		}
		return h, nil
	}
	return inner, nil
}

// LinkFaultsFor compiles the scenario's link-fault rules for instance inst,
// seeded from the instance seed; nil when the scenario has none. One set per
// instance, never one per daemon: linkfault.Set.Next allows one sender
// goroutine per edge, and a daemon runs many instances over one edge (each
// with one runner at a time).
func (f *InstanceFactory) LinkFaultsFor(inst uint64) (*linkfault.Set, error) {
	return buildLinkFaults(f.g, f.instOpts(inst))
}

// HandlersFor mints the full per-vertex machine set for instance inst —
// what an in-process harness (or a conformance test) uses to run a whole
// pipelined instance the way buildHandlers arms a single-shot run.
func (f *InstanceFactory) HandlersFor(inst uint64) ([]Handler, NodeSet, error) {
	opts := f.instOpts(inst)
	factory, err := f.build(f.g, f.inputs, opts)
	if err != nil {
		return nil, graph.EmptySet, err
	}
	return buildHandlers(f.g, f.inputs, opts, factory)
}
