package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/transport"
)

// The protocol registry maps serialized protocol names to their entry
// points, so scenario files, CLIs and sweeps can select protocols
// declaratively — and external packages can plug in new ones with Register
// without touching any call site. A protocol has up to two faces: a
// RunFunc (a complete simulator execution) and a BuilderFunc (a per-vertex
// machine factory, which is what the live cluster runtimes consume). The
// built-ins register both.

type protocolEntry struct {
	run   RunFunc
	build BuilderFunc
}

// Protocol tiers and decision shapes for ProtocolInfo.
const (
	TierApproximate = "approximate" // ε-agreement on a real value
	TierExact       = "exact"       // exact agreement (binary or subset)
	ShapeScalar     = "scalar"      // decision is one float (Result.Outputs)
	ShapeVector     = "vector"      // decision is a vector (Result.Vectors)
)

// ProtocolInfo is a protocol's catalog metadata: its consensus tier
// (approximate vs exact), decision shape (scalar vs vector) and a one-line
// doc. Catalog consumers (abacsim -list) render from this rather than
// hardcoding strings per protocol.
type ProtocolInfo struct {
	Name  string
	Tier  string
	Shape string
	Doc   string
}

var (
	protocolMu sync.RWMutex
	protocols  = map[string]*protocolEntry{}
)

// Register adds a protocol under a unique, non-empty name. Re-registration
// panics: two packages claiming one name is a programming error, not a
// runtime condition. The built-in protocols "bw", "aad", "crashapprox",
// "iterative", "aba" and "acs" are pre-registered. A protocol registered
// this way runs on the simulator only; add RegisterBuilder to run it on
// cluster runtimes.
func Register(name string, run RunFunc) {
	protocolMu.Lock()
	defer protocolMu.Unlock()
	if name == "" || run == nil {
		panic("repro: Register with empty name or nil RunFunc")
	}
	if _, dup := protocols[name]; dup {
		panic(fmt.Sprintf("repro: protocol %q registered twice", name))
	}
	protocols[name] = &protocolEntry{run: run}
}

// RegisterBuilder attaches a live-runtime machine factory to an already
// registered protocol, making it runnable on the cluster runtimes
// (Scenario.RunOn) and under the service daemon (InstanceFactory, abacd).
// Unknown names and double registration panic, like Register.
func RegisterBuilder(name string, build BuilderFunc) {
	protocolMu.Lock()
	defer protocolMu.Unlock()
	e, ok := protocols[name]
	if !ok {
		panic(fmt.Sprintf("repro: RegisterBuilder for unregistered protocol %q", name))
	}
	if build == nil {
		panic("repro: RegisterBuilder with nil BuilderFunc")
	}
	if e.build != nil {
		panic(fmt.Sprintf("repro: builder for protocol %q registered twice", name))
	}
	e.build = build
}

// ProtocolCatalog returns every registered protocol's metadata, sorted by
// name: the built-ins' from their table, and the default tier and shape
// (approximate, scalar) with no doc for a protocol registered by Register.
func ProtocolCatalog() []ProtocolInfo {
	var infos []ProtocolInfo
	for _, name := range Protocols() {
		info, ok := builtins[name]
		if !ok {
			info.Tier, info.Shape = TierApproximate, ShapeScalar
		}
		info.ProtocolInfo.Name = name
		infos = append(infos, info.ProtocolInfo)
	}
	return infos
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string {
	protocolMu.RLock()
	defer protocolMu.RUnlock()
	names := make([]string, 0, len(protocols))
	for name := range protocols {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ProtocolByName resolves a registered protocol's simulator entry point.
func ProtocolByName(name string) (RunFunc, error) {
	protocolMu.RLock()
	e := protocols[name]
	protocolMu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("repro: unknown protocol %q (valid values are: %v)", name, Protocols())
	}
	return e.run, nil
}

// ProtocolBuilder resolves a registered protocol's live-runtime machine
// factory; protocols registered without one (Register only) report a
// dedicated error.
func ProtocolBuilder(name string) (BuilderFunc, error) {
	protocolMu.RLock()
	e := protocols[name]
	protocolMu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("repro: unknown protocol %q (valid values are: %v)", name, Protocols())
	}
	if e.build == nil {
		return nil, fmt.Errorf("repro: protocol %q has no live-runtime builder (RegisterBuilder); it runs on the simulator only", name)
	}
	return e.build, nil
}

// simRun is a built-in's simulator face: arm the run, execute its machines
// on the simulator.
func simRun(build BuilderFunc) RunFunc {
	return func(g *Graph, inputs []float64, opts Options) (*Result, error) {
		a, err := arm(g, inputs, opts, build)
		if err != nil {
			return nil, err
		}
		handlers, err := a.machines(opts.Seed)
		if err != nil {
			return nil, err
		}
		policy, err := transport.NewPolicy(opts.Policy, opts.PolicyParams, opts.Seed)
		if err != nil {
			return nil, err
		}
		links, err := a.links(opts.Seed)
		if err != nil {
			return nil, err
		}
		runner, err := sim.New(sim.Config{
			Graph:       g,
			Policy:      policy,
			LinkFaults:  links,
			RecordTrace: opts.RecordTrace,
			Observer:    opts.Observer,
		}, handlers)
		if err != nil {
			return nil, err
		}
		if err := runner.Run(); err != nil {
			return nil, err
		}
		res := &Result{
			Steps:        runner.Steps(),
			MessagesSent: runner.Stats().Sent,
			ByKind:       runner.Stats().ByKind(),
			Trace:        runner.TraceString(),
		}
		res.Outputs, res.Decided = runner.Outputs(a.honest)
		return a.result(res, handlers, links), nil
	}
}

// builtins are the protocols every build registers: each one's machine
// factory (its simulator face is simRun over it), catalog metadata and,
// when not every kind, the fault kinds that act on it (FaultKindsFor).
var builtins = map[string]struct {
	build BuilderFunc
	ProtocolInfo
	faults []string
}{
	"bw": {buildBW, ProtocolInfo{Tier: TierApproximate, Shape: ShapeScalar,
		Doc: "the paper's Algorithm BW: Byzantine approximate consensus on directed graphs"}, nil},
	"aad": {buildAAD, ProtocolInfo{Tier: TierApproximate, Shape: ShapeScalar,
		Doc: "Abraham-Amit-Dolev clique baseline on reliable broadcast"}, nil},
	"crashapprox": {buildCrashApprox, ProtocolInfo{Tier: TierApproximate, Shape: ShapeScalar,
		Doc: "crash-fault 2-reach approximate consensus (Theorem 2)"}, []string{"crash", "silent"}},
	"iterative": {buildIterative, ProtocolInfo{Tier: TierApproximate, Shape: ShapeScalar,
		Doc: "local iterative trimmed-mean ablation"},
		[]string{"crash", "delayedequiv", "equivocate", "extreme", "noise", "replay", "silent", "split"}},
	"aba": {buildABA, ProtocolInfo{Tier: TierExact, Shape: ShapeScalar,
		Doc: "MMR asynchronous binary agreement with a seeded deterministic coin"}, []string{"crash", "equivocate", "replay", "silent"}},
	"acs": {buildACS, ProtocolInfo{Tier: TierExact, Shape: ShapeVector,
		Doc: "BKR agreement on a common subset: n reliable broadcasts + n ABA instances"}, nil},
}

// FaultKindsFor lists the fault kinds a scenario of protocol accepts,
// sorted: every kind but those that would leave the faulty vertex's
// traffic honest, and only crashes for the crash-model crashapprox.
func FaultKindsFor(protocol string) []string {
	if kinds := builtins[protocol].faults; kinds != nil {
		return slices.Clone(kinds)
	}
	return FaultKinds()
}

func init() {
	for name, b := range builtins {
		Register(name, simRun(b.build))
		RegisterBuilder(name, b.build)
	}
}

// Policies lists the asynchrony schedule policies for Options.Policy /
// PolicySpec.Name: "bounded", "fifo", "lifo", "random".
func Policies() []string { return transport.PolicyNames() }

// Observer receives streaming events from a running execution; see
// Options.Observer and Scenario.RunObserved. Implementations are called
// synchronously from the delivery loop and must not block.
type Observer = sim.Observer

// Event is one streamed observation: a delivery, a hold, a release, or a
// per-round value snapshot.
type Event = sim.Event

// Event types.
const (
	EventDeliver = sim.EventDeliver
	EventHold    = sim.EventHold
	EventRelease = sim.EventRelease
	EventRound   = sim.EventRound
)

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = sim.ObserverFunc

// JSONLObserver returns an Observer that streams one compact JSON object
// per event to w (JSON Lines). Records carry a "type" discriminator:
//
//	{"type":"deliver","step":12,"from":0,"to":3,"kind":"VAL","seq":41}
//	{"type":"hold","step":0,"from":1,"to":2,"kind":"VAL","seq":3}
//	{"type":"release","step":40,"count":3}
//	{"type":"round","step":57,"node":2,"round":3,"value":1.875}
//
// Write errors are sticky and reported by the returned error function;
// events after an error are dropped. The observer is goroutine-safe, so one
// instance may be shared across the parallel runs of RunSeeds/RunBatch
// (lines from concurrent runs interleave whole, never mid-record).
func JSONLObserver(w io.Writer) (Observer, func() error) {
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	var sticky error
	obs := ObserverFunc(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if sticky != nil {
			return
		}
		var rec any
		switch e.Type {
		case EventDeliver, EventHold:
			rec = struct {
				Type string `json:"type"`
				Step int    `json:"step"`
				From int    `json:"from"`
				To   int    `json:"to"`
				Kind string `json:"kind"`
				Seq  uint64 `json:"seq"`
			}{e.Type.String(), e.Step, e.Message.From, e.Message.To, e.Message.Payload.Kind(), e.Message.Seq}
		case EventRelease:
			rec = struct {
				Type  string `json:"type"`
				Step  int    `json:"step"`
				Count int    `json:"count"`
			}{e.Type.String(), e.Step, e.Count}
		case EventRound:
			rec = struct {
				Type  string  `json:"type"`
				Step  int     `json:"step"`
				Node  int     `json:"node"`
				Round int     `json:"round"`
				Value float64 `json:"value"`
			}{e.Type.String(), e.Step, e.Node, e.Round, e.Value}
		default:
			return
		}
		sticky = enc.Encode(rec)
	})
	return obs, func() error {
		mu.Lock()
		defer mu.Unlock()
		return sticky
	}
}
