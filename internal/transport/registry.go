package transport

import (
	"fmt"
	"slices"
)

// policyNames is the closed catalog of delivery policies, sorted.
var policyNames = []string{"bounded", "fifo", "lifo", "random"}

// PolicyNames lists the delivery policies, sorted.
func PolicyNames() []string { return slices.Clone(policyNames) }

// NewPolicy instantiates a policy by name from its named numeric knobs.
// The empty name selects "random", the default model of asynchrony; seed
// drives any internal randomness (ignored by deterministic policies).
// Unknown param names are rejected, so a misspelled knob in a scenario
// file fails loudly at decode time rather than silently running the
// default. Each call returns a fresh instance: policies may be stateful
// (rng streams, overtaking counters), so instances must never be shared
// between runs.
func NewPolicy(name string, params map[string]float64, seed int64) (Policy, error) {
	if name == "" {
		name = "random"
	}
	if !slices.Contains(policyNames, name) {
		return nil, fmt.Errorf("transport: unknown policy %q (valid values are: %v)", name, policyNames)
	}
	allowed := []string{}
	if name == "bounded" {
		allowed = []string{"bound"}
	}
	for param := range params {
		if !slices.Contains(allowed, param) {
			return nil, fmt.Errorf("transport: policy %q: unknown param %q (valid params are: %v)", name, param, allowed)
		}
	}
	switch name {
	case "fifo":
		return FIFOPolicy{}, nil
	case "lifo":
		return LIFOPolicy{}, nil
	case "bounded":
		bound, ok := params["bound"]
		if !ok {
			return nil, fmt.Errorf(`transport: policy "bounded": missing param "bound" (the overtaking bound)`)
		}
		if bound < 0 || bound != float64(uint64(bound)) {
			return nil, fmt.Errorf(`transport: policy "bounded": param "bound" = %g must be a non-negative integer`, bound)
		}
		return NewBoundedDelayPolicy(uint64(bound), seed), nil
	}
	return NewRandomPolicy(seed), nil
}

// ValidatePolicy reports whether the (name, params) pair would build,
// without keeping the instance — decode-time validation for scenario specs.
func ValidatePolicy(name string, params map[string]float64) error {
	_, err := NewPolicy(name, params, 0)
	return err
}
