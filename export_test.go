package repro

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
