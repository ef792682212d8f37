package repro

import (
	"fmt"

	"repro/internal/linkfault"
	"repro/internal/seedmix"
)

// InstanceFactory is the service tier's bridge into the protocol registry:
// a Scenario armed once — graph, inputs, normalized options, resolved
// builder, fault plan — from which per-instance machines are minted on
// demand, exactly as the one-shot runtimes arm theirs. Each consensus
// instance gets its own decorrelated seed (seedmix.Mix of the base seed and
// the instance id), so pipelined instances with randomized adversaries or
// seeded coins do not replay each other's streams, while two daemons
// minting machines for the same instance id derive identical per-instance
// options — the agreement protocols' shared-parameter requirement.
type InstanceFactory struct {
	run *armed
}

// NewInstanceFactory arms the scenario — everything shared across
// instances, done once. The scenario's own Protocol is the default;
// NewInstanceFactoryFor overrides it.
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
	s.Protocol = protocol
	a, err := s.arm()
	if err != nil {
		return nil, err
	}
	f := &InstanceFactory{run: a}
	// Fail at construction, not at the first submit: run the builder once
	// so structural rejections (incomplete graph for the exact tier,
	// n <= 3f, reach violations) surface immediately.
	if _, err := a.factory(f.seed(0)); err != nil {
		return nil, err
	}
	return f, nil
}

// Graph returns the materialized topology (shared; do not mutate).
func (f *InstanceFactory) Graph() *Graph { return f.run.g }

// Inputs returns the materialized input vector (shared; do not mutate).
func (f *InstanceFactory) Inputs() []float64 { return f.run.inputs }

// seed is instance inst's seed: the base seed decorrelated per instance.
func (f *InstanceFactory) seed(inst uint64) int64 { return seedmix.Mix(f.run.opts.Seed, int64(inst)) }

// HandlerFor mints vertex id's machine for instance inst — exactly the
// machine the one-shot runtimes arm for that vertex at the instance's seed,
// adversary-wrapped when the scenario marks the vertex faulty. It builds
// that one vertex only: a daemon opens one machine per instance.
func (f *InstanceFactory) HandlerFor(inst uint64, id int) (Handler, error) {
	if id < 0 || id >= f.run.g.N() {
		return nil, fmt.Errorf("repro: instance factory: vertex %d outside graph order %d", id, f.run.g.N())
	}
	seed := f.seed(inst)
	factory, err := f.run.factory(seed)
	if err != nil {
		return nil, err
	}
	return f.run.machine(factory, seed, id)
}

// LinkFaultsFor compiles the scenario's link-fault rules for instance inst,
// seeded from the instance seed; nil when the scenario has none. One set per
// instance, never one per daemon: linkfault.Set.Next allows one sender
// goroutine per edge, and a daemon runs many instances over one edge (each
// with one runner at a time).
func (f *InstanceFactory) LinkFaultsFor(inst uint64) (*linkfault.Set, error) {
	return f.run.links(f.seed(inst))
}
