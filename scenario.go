package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/linkfault"
	"repro/internal/transport"
)

// Scenario is a declarative, JSON-round-trippable run specification: one
// (graph, protocol, adversary, schedule) tuple plus execution knobs. It is
// the unit the experiment matrices are made of — serialize a Scenario,
// archive it next to the numbers it produced, decode and Run it again and
// the delivery trace is byte-identical.
//
// The zero values defer to the same defaults as Options: F=1, Eps=0.1,
// K=max(|input|), random delivery policy. Inputs and
// InputGen are mutually exclusive; with neither, nodes get input i mod 4
// (the CLI default).
type Scenario struct {
	// Name is an optional label for reports and sweep rows.
	Name string `json:"name,omitempty"`
	// Graph is a named graph spec, e.g. "fig1a", "clique:5",
	// "circulant:7:1,2,3" or "random:6:0.6:13"; see NamedGraph.
	Graph string `json:"graph"`
	// Protocol names a registered protocol: "bw", "aad", "crashapprox",
	// "iterative", or anything added via Register.
	Protocol string `json:"protocol"`
	// Inputs are explicit per-node inputs (length must match the graph
	// order). Mutually exclusive with InputGen.
	Inputs []float64 `json:"inputs,omitempty"`
	// InputGen derives the inputs from the graph order instead of listing
	// them, keeping large scenarios compact.
	InputGen *InputGenSpec `json:"inputGen,omitempty"`
	// F is the resilience parameter (default 1; -1 = explicit zero fault
	// bound, see FZero).
	F int `json:"f,omitempty"`
	// K is the a-priori input range bound (default max(|input|)).
	K float64 `json:"k,omitempty"`
	// Eps is the agreement parameter (default 0.1).
	Eps float64 `json:"eps,omitempty"`
	// Rounds overrides the log2(K/Eps) round bound where supported.
	Rounds int `json:"rounds,omitempty"`
	// Seed drives the asynchrony schedule and randomized faults.
	Seed int64 `json:"seed,omitempty"`
	// Seeds is the batch width for RunBatch: consecutive seeds starting at
	// Seed. 0 and 1 both mean a single run.
	Seeds int `json:"seeds,omitempty"`
	// Engine carries no behaviour: it must be "" or "inline". Kept until
	// bench/micro.go's parallelSpeedup, its last caller, is retired.
	Engine string `json:"engine,omitempty"`
	// EngineWorkers carries no behaviour: it must be 0. Kept for the same
	// last caller, bench/micro.go's parallelSpeedup.
	EngineWorkers int `json:"engineWorkers,omitempty"`
	// Policy selects the asynchrony schedule policy (default random).
	Policy *PolicySpec `json:"policy,omitempty"`
	// Faults lists the faulty nodes and their behaviors.
	Faults []FaultSpec `json:"faults,omitempty"`
	// LinkFaults lists Byzantine link-failure rules, applied in order to
	// every send crossing a matched directed edge — on the simulator and on
	// the cluster runtimes alike; see LinkFault.
	LinkFaults []LinkFault `json:"linkFaults,omitempty"`
	// RecordTrace captures the delivery schedule into Result.Trace.
	RecordTrace bool `json:"recordTrace,omitempty"`
}

// PolicySpec names a registered delivery policy plus its numeric knobs.
type PolicySpec struct {
	// Name is a registered policy: "random", "fifo", "lifo", "bounded".
	Name string `json:"name"`
	// Params carries named knobs, e.g. {"bound": 8} for "bounded".
	Params map[string]float64 `json:"params,omitempty"`
}

// FaultSpec assigns one node an adversary fault kind (see FaultKinds)
// with named parameters and optional composed mutator layers.
type FaultSpec struct {
	Node int `json:"node"`
	// Kind is a fault kind: "silent", "crash", "extreme", "equivocate",
	// "tamper", "noise", "delayedequiv", "split" or "replay" (see
	// FaultKinds).
	Kind    string      `json:"kind"`
	Params  FaultParams `json:"params,omitempty"`
	Compose []Mutation  `json:"compose,omitempty"`
}

// FaultParams carries a fault's named numeric knobs. A forged value
// (extreme's value, tamper's delta, ...) may be NaN or ±Inf — an attack the
// machines must survive — and JSON numbers cannot carry those three, so
// the JSON form spells them as the strings "NaN", "+Inf" and "-Inf"; every
// fault that validates is one a scenario file can record.
type FaultParams map[string]float64

// MarshalJSON implements json.Marshaler.
func (p FaultParams) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(p))
	for k, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = strconv.FormatFloat(v, 'g', -1, 64)
		} else {
			m[k] = v
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *FaultParams) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil || m == nil {
		return err
	}
	out := make(FaultParams, len(m))
	for k, v := range m {
		switch v := v.(type) {
		case float64:
			out[k] = v
		case string:
			if v != "NaN" && v != "+Inf" && v != "-Inf" {
				return fmt.Errorf("param %q: %q is not a number (the non-finite values are spelled \"NaN\", \"+Inf\" and \"-Inf\")", k, v)
			}
			out[k], _ = strconv.ParseFloat(v, 64)
		default:
			return fmt.Errorf("param %q: %v is not a number", k, v)
		}
	}
	*p = out
	return nil
}

// spec converts to the adversary package's resolved form.
func (fl FaultSpec) spec() adversary.Spec {
	s := adversary.Spec{Kind: fl.Kind, Params: adversary.Params(fl.Params)}
	for _, m := range fl.Compose {
		s.Compose = append(s.Compose, adversary.Layer{Kind: m.Kind, Params: adversary.Params(m.Params)})
	}
	return s
}

// faultPlan resolves a fault list for a graph of order n into each faulty
// vertex's adversary. An unknown kind or param, a node outside the graph and
// a node listed twice are refused, in the same words on every path.
func faultPlan(faults []FaultSpec, n int) (map[int]adversary.Spec, error) {
	plan := make(map[int]adversary.Spec, len(faults))
	for _, fl := range faults {
		spec := fl.spec()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("fault at node %d: %w", fl.Node, err)
		}
		if fl.Node < 0 || fl.Node >= n {
			return nil, fmt.Errorf("fault node %d outside graph order %d", fl.Node, n)
		}
		if _, dup := plan[fl.Node]; dup {
			return nil, fmt.Errorf("node %d has two fault entries", fl.Node)
		}
		plan[fl.Node] = spec
	}
	return plan, nil
}

// InputGenSpec derives per-node inputs from the graph order:
//
//	{"kind":"mod","mod":4}                  input i = i mod 4
//	{"kind":"linear","scale":2,"offset":1}  input i = scale*i + offset
//	{"kind":"const","value":3.5}            all inputs equal
//	{"kind":"uniform","lo":0,"hi":4,"seed":7}  i.i.d. uniform draws
type InputGenSpec struct {
	Kind   string  `json:"kind"`
	Mod    int     `json:"mod,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
}

// generate produces the inputs for a graph of order n.
func (g *InputGenSpec) generate(n int) ([]float64, error) {
	out := make([]float64, n)
	switch g.Kind {
	case "mod":
		for i := range out {
			out[i] = float64(i % g.Mod)
		}
	case "linear":
		scale := g.Scale
		if scale == 0 {
			scale = 1
		}
		for i := range out {
			out[i] = scale*float64(i) + g.Offset
		}
	case "const":
		for i := range out {
			out[i] = g.Value
		}
	case "uniform":
		rng := rand.New(rand.NewSource(g.Seed))
		for i := range out {
			out[i] = g.Lo + (g.Hi-g.Lo)*rng.Float64()
		}
	default:
		return nil, fmt.Errorf("repro: unknown inputGen kind %q (valid values are: [mod linear const uniform])", g.Kind)
	}
	return out, nil
}

// validate checks the generator spec without a graph at hand.
func (g *InputGenSpec) validate() error {
	switch g.Kind {
	case "mod":
		if g.Mod < 1 {
			return fmt.Errorf("repro: inputGen mod: %d must be >= 1", g.Mod)
		}
	case "linear", "const":
		// No constraints.
	case "uniform":
		if g.Hi < g.Lo {
			return fmt.Errorf("repro: inputGen uniform: hi %g < lo %g", g.Hi, g.Lo)
		}
	default:
		return fmt.Errorf("repro: unknown inputGen kind %q (valid values are: [mod linear const uniform])", g.Kind)
	}
	return nil
}

// defaultInputGen is applied when a scenario specifies neither Inputs nor
// InputGen — the same i mod 4 assignment the CLI defaults to.
var defaultInputGen = InputGenSpec{Kind: "mod", Mod: 4}

// Validate checks every name and cross-reference in the scenario eagerly —
// graph spec, protocol, policy and params, fault kinds (each one its
// protocol accepts) and node ranges, input arity — so a bad scenario file
// fails at decode time with a message naming the valid values, not mid-run
// from deep inside the simulator.
func (s Scenario) Validate() error {
	_, _, err := s.Materialize()
	return err
}

// Materialize validates the scenario and resolves its graph and input
// vector. The graph is shared by every caller with the same spec — runs,
// batches, instance factories and the service — and built once while any of
// them holds it (graph.SharedNamed): it must not be edited; Clone it first.
// The inputs are the caller's own.
func (s Scenario) Materialize() (*Graph, []float64, error) {
	if s.Graph == "" {
		return nil, nil, fmt.Errorf("repro: scenario: missing graph spec")
	}
	g, err := graph.SharedNamed(s.Graph)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: scenario: %w", err)
	}
	if s.Protocol == "" {
		return nil, nil, fmt.Errorf("repro: scenario: missing protocol (valid values are: %v)", Protocols())
	}
	if _, err := ProtocolByName(s.Protocol); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	if math.IsNaN(s.K) || math.IsInf(s.K, 0) || math.IsNaN(s.Eps) || math.IsInf(s.Eps, 0) {
		return nil, nil, fmt.Errorf("repro: scenario: k=%v and eps=%v must be finite", s.K, s.Eps)
	}
	if s.F < FZero || s.K < 0 || s.Eps < 0 || s.Rounds < 0 || s.Seeds < 0 {
		return nil, nil, fmt.Errorf("repro: scenario: k, eps, rounds and seeds must be non-negative and f >= %d (%d = explicit zero fault bound)", FZero, FZero)
	}
	if (s.Engine != "" && s.Engine != "inline") || s.EngineWorkers != 0 {
		return nil, nil, fmt.Errorf("repro: scenario: engine %q with engineWorkers %d: the goroutine and parallel engines were removed, only \"inline\" with 0 workers decodes", s.Engine, s.EngineWorkers)
	}
	if s.Policy != nil {
		if err := transport.ValidatePolicy(s.Policy.Name, s.Policy.Params); err != nil {
			return nil, nil, fmt.Errorf("repro: scenario: %w", err)
		}
	}
	if _, err := faultPlan(s.Faults, g.N()); err != nil {
		return nil, nil, fmt.Errorf("repro: scenario: %w", err)
	}
	accepted := FaultKindsFor(s.Protocol)
	for _, fl := range s.Faults {
		for _, l := range append([]Mutation{{Kind: fl.Kind}}, fl.Compose...) {
			if !slices.Contains(accepted, l.Kind) {
				return nil, nil, fmt.Errorf("repro: scenario: fault at node %d: protocol %q does not accept fault kind %q (it accepts %v)", fl.Node, s.Protocol, l.Kind, accepted)
			}
		}
	}
	if err := linkfault.Validate(g, linkRules(s.LinkFaults)); err != nil {
		return nil, nil, fmt.Errorf("repro: scenario: %w", err)
	}

	var inputs []float64
	switch {
	case s.Inputs != nil && s.InputGen != nil:
		return nil, nil, fmt.Errorf("repro: scenario: inputs and inputGen are mutually exclusive")
	case s.Inputs != nil:
		if len(s.Inputs) != g.N() {
			return nil, nil, fmt.Errorf("repro: scenario: %d inputs for %d nodes", len(s.Inputs), g.N())
		}
		inputs = append([]float64(nil), s.Inputs...)
	default:
		gen := s.InputGen
		if gen == nil {
			gen = &defaultInputGen
		}
		if err := gen.validate(); err != nil {
			return nil, nil, err
		}
		if inputs, err = gen.generate(g.N()); err != nil {
			return nil, nil, err
		}
	}
	for v, x := range inputs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("repro: scenario: input %v of vertex %d is not finite", x, v)
		}
	}
	return g, inputs, nil
}

// options translates the scenario into the imperative Options form.
func (s Scenario) options() Options {
	opts := Options{
		F: s.F, K: s.K, Eps: s.Eps, Seed: s.Seed,
		Rounds: s.Rounds, RecordTrace: s.RecordTrace,
		Faults: s.Faults, LinkFaults: s.LinkFaults,
	}
	if s.Policy != nil {
		opts.Policy = s.Policy.Name
		opts.PolicyParams = s.Policy.Params
	}
	return opts
}

// Run validates the scenario and executes it once with its Seed.
func (s Scenario) Run() (*Result, error) { return s.RunObserved(nil) }

// RunObserved is Run with a streaming observer attached: obs receives
// per-delivery, hold/release and per-round events live (see Observer). A
// nil obs is allowed and costs nothing.
func (s Scenario) RunObserved(obs Observer) (*Result, error) {
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	run, err := ProtocolByName(s.Protocol)
	if err != nil {
		return nil, err
	}
	opts := s.options()
	opts.Observer = obs
	return run(g, inputs, opts)
}

// RunBatch executes the scenario across Seeds consecutive seeds starting at
// Seed (a single run when Seeds <= 1), fanning the independent executions
// over a worker pool (workers < 1 means one per CPU, 1 runs sequentially).
// Results come back in seed order and are identical to sequential calls:
// every run rebuilds its policy and handlers from the spec, so no mutable
// state crosses runs. RunBatch subsumes RunSeeds for scenario callers.
// Cancelling ctx stops the batch between runs and returns ctx.Err(); a nil
// ctx means context.Background().
func (s Scenario) RunBatch(ctx context.Context, workers int) ([]*Result, error) {
	// Materialize once: Graph is immutable after construction and the runs
	// only read the inputs, so the whole batch shares them safely instead of
	// rebuilding per seed.
	g, inputs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	run, err := ProtocolByName(s.Protocol)
	if err != nil {
		return nil, err
	}
	n := s.Seeds
	if n < 1 {
		n = 1
	}
	return RunSeeds(ctx, run, g, inputs, s.options(), n, workers)
}

// ParseScenario decodes and validates a JSON scenario. Unknown fields are
// rejected — a typoed knob must not silently fall back to a default.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		// The scalar fault form is gone; json's own "unknown field" would
		// not tell the owner of an old file what to write instead.
		if strings.Contains(err.Error(), `unknown field "param"`) {
			return nil, fmt.Errorf(`repro: scenario: the scalar "param" fault form was removed: write "params": {"<name>": <value>} (abacsim -list prints each fault kind's param names)`)
		}
		return nil, fmt.Errorf("repro: scenario: %w", err)
	}
	// Anything but clean EOF after the object — valid JSON or garbage — is
	// trailing data (e.g. a botched merge leaving a stray brace).
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("repro: scenario: trailing data after JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// JSON renders the scenario as validated, stable, indented JSON — the
// canonical serialized form, which ParseScenario round-trips: the fault
// list is in node order. Link-fault rules keep their listed order (rules
// apply in order).
func (s Scenario) JSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Faults) > 0 {
		s.Faults = append([]FaultSpec(nil), s.Faults...)
		sort.Slice(s.Faults, func(i, j int) bool { return s.Faults[i].Node < s.Faults[j].Node })
	}
	return json.MarshalIndent(s, "", "  ")
}
