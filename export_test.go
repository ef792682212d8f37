package repro

import "repro/internal/linkfault"

// RunWith runs the scenario on the simulator over machines from build
// instead of the registered builder's — how the external tests put a
// wrapper (the goroutine reference) around every machine of a full run,
// adversaries and link faults included.
func (s Scenario) RunWith(build BuilderFunc) (*Result, error) {
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	return simRun(build)(g, inputs, s.options())
}

// LiveMachines arms the scenario the way RunOn does before it starts a
// cluster: every vertex's machine and the run's link-fault set, at the
// scenario's seed.
func (s Scenario) LiveMachines() ([]Handler, *linkfault.Set, error) {
	a, err := s.arm()
	if err != nil {
		return nil, nil, err
	}
	handlers, err := a.machines(a.opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	links, err := a.links(a.opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	return handlers, links, nil
}
