// Package repro is the public API of this repository: a reproduction of
// "Asynchronous Byzantine Approximate Consensus in Directed Networks"
// (Sakavalas, Tseng, Vaidya — PODC 2020).
//
// It exposes four layers:
//
//   - graph construction and the paper's topological conditions
//     (1-/2-/3-reach, the k-reach family, CCS/CCA/BCS, connectivity),
//   - protocol execution: the paper's BW algorithm (Byzantine,
//     asynchronous, directed — Theorem 4), the Abraham–Amit–Dolev clique
//     baseline, the crash-fault 2-reach algorithm and the local iterative
//     baseline — plus an exact-consensus tier on the reliable-broadcast
//     substrate: MMR asynchronous binary agreement ("aba") and BKR
//     agreement on a common subset ("acs", a vector decision) — all over
//     a deterministic simulator with registry-backed,
//     composable fault injection — named node adversaries (FaultKinds)
//     plus per-edge Byzantine link failures (LinkFaultKinds); a seed
//     fixes the delivery schedule, so runs replay byte for byte,
//   - a live node runtime: the same protocol machines as real networked
//     nodes exchanging wire-encoded frames, in-process (Scenario.RunOn
//     with "loopback"), over local TCP sockets ("tcp"), or as genuinely
//     separate processes (InstanceFactory / cmd/abacd) — cross-runtime
//     conformance tests pin that cluster runs satisfy the same validity
//     and ε-agreement criteria as simulator runs,
//   - the Theorem 18 necessity construction, which exhibits a convergence
//     violation on any graph that fails 3-reach.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/aad"
	"repro/internal/aba"
	"repro/internal/acs"
	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/cond"
	"repro/internal/crashapprox"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/linkfault"
	"repro/internal/par"
	"repro/internal/seedmix"
	"repro/internal/sim"
)

// Graph is a simple directed graph on nodes 0..n-1 (see internal/graph).
type Graph = graph.Graph

// NodeSet is a bitmask set of node IDs.
type NodeSet = graph.Set

// ReachWitness describes a violated reach condition.
type ReachWitness = cond.Witness

// NecessityResult is the outcome of the Theorem 18 construction.
type NecessityResult = adversary.NecessityResult

// NamedGraph constructs a built-in graph from a spec string such as
// "clique:5", "fig1b" or "random:7:0.5:3"; see graph.Named for the full
// grammar.
func NamedGraph(spec string) (*Graph, error) { return graph.Named(spec) }

// NamedGraphSpecs lists the spec grammar NamedGraph accepts, one annotated
// form per line (for CLI help and catalogs).
func NamedGraphSpecs() []string { return graph.NamedSpecs() }

// Builders for the graphs used throughout the paper and the experiments.
var (
	Clique    = graph.Clique
	Fig1a     = graph.Fig1a
	Circulant = graph.Circulant
)

// ConditionReport collects every condition of the paper's Tables 1 and 2
// for one graph and fault bound.
type ConditionReport struct {
	N, M, F    int
	OneReach   bool
	TwoReach   bool
	ThreeReach bool
	CCS        bool
	CCA        bool
	BCS        bool
	// Witness3 is a 3-reach violation witness when ThreeReach is false.
	Witness3 *ReachWitness
	// Kappa is the vertex connectivity (meaningful for undirected graphs;
	// -1 for directed inputs).
	Kappa int
	// Certified reports whether the condition checkers actually ran. It is
	// false when the fault bound and order put the reach checkers' table of
	// removal sets past what CertLimit allows, in which case every
	// condition field is false and Note explains the skip. Callers showing
	// results must surface Note rather than presenting the unchecked falses
	// as violations.
	Certified bool
	// Note carries a human-readable caveat: why certification was skipped,
	// that the partition conditions were substituted by their proven reach
	// equivalents, or that κ was not computed.
	Note string
}

// CheckConditions evaluates all conditions on g with fault bound f. The
// partition conditions enumerate 3^n assignments and are skipped (reported
// as the equivalent reach results) for n > PartitionLimit; κ is skipped
// above kappaLimit; and past CertLimit's budget of removal sets the whole
// certification is skipped with an explicit Note.
func CheckConditions(g *Graph, f int) ConditionReport {
	rep := ConditionReport{N: g.N(), M: g.M(), F: f, Kappa: -1}
	if budget := graph.CountSubsets(CertLimit, 2); !graph.SubsetsWithin(g.N(), 2*f, budget) {
		rep.Note = fmt.Sprintf("condition certification skipped: order %d with f=%d means more than %d removal sets "+
			"of at most 2f vertices to tabulate (what f=1 costs at CertLimit %d)", g.N(), f, budget, CertLimit)
		return rep
	}
	rep.Certified = true
	// 3-reach with F = ∅ is 2-reach, and 2-reach with Fu = Fv is 1-reach:
	// when the strongest holds — the expensive case, every pair is tested —
	// its one table answers all three; a violation is found early and the
	// weaker conditions' tables are the small ones (sets of <= f vertices).
	rep.ThreeReach, rep.Witness3 = cond.Check3Reach(g, f)
	if rep.TwoReach = rep.ThreeReach; !rep.TwoReach {
		rep.TwoReach, _ = cond.Check2Reach(g, f)
	}
	if rep.OneReach = rep.TwoReach; !rep.OneReach {
		rep.OneReach, _ = cond.Check1Reach(g, f)
	}
	var notes []string
	if g.N() <= PartitionLimit {
		rep.CCS, _ = cond.CheckCCS(g, f)
		rep.CCA, _ = cond.CheckCCA(g, f)
		rep.BCS, _ = cond.CheckBCS(g, f)
	} else {
		rep.CCS, rep.CCA, rep.BCS = rep.OneReach, rep.TwoReach, rep.ThreeReach
		notes = append(notes, fmt.Sprintf("partition conditions substituted by their reach equivalents (order %d > PartitionLimit %d)",
			g.N(), PartitionLimit))
	}
	if g.IsUndirected() {
		if g.N() <= kappaLimit {
			rep.Kappa = g.VertexConnectivity()
		} else {
			notes = append(notes, fmt.Sprintf("κ not computed (order %d > %d: vertex connectivity is n² max-flows on a (2n+2)² matrix each)",
				g.N(), kappaLimit))
		}
	}
	rep.Note = strings.Join(notes, "; ")
	return rep
}

// PartitionLimit is the largest order for which CheckConditions runs the
// exponential partition-based checkers directly.
const PartitionLimit = 9

// CertLimit is the largest order CheckConditions certifies at f = 1. The
// reach checkers tabulate the source components of G−A for every removal
// set A of at most 2f vertices, so the bound is on that count: certification
// runs when C(n, <=2f) is at most C(CertLimit, <=2) = 524 801 sets — about
// 70 MB and 20 s on a 2-CPU host at (1024, f = 1), the top of the default
// build's E14 ladder (EXPERIMENTS.md E25); f = 2 fits up to n = 60, and
// f = 0 at any order.
const CertLimit = 1024

// kappaLimit is the largest order for which CheckConditions computes κ.
const kappaLimit = 64

// Check3Reach verifies the paper's tight condition (Definition 3) and
// returns a violation witness when it fails.
func Check3Reach(g *Graph, f int) (bool, *ReachWitness) { return cond.Check3Reach(g, f) }

// CheckKReach verifies the generalized k-reach condition (Definition 20).
func CheckKReach(g *Graph, k, f int) (bool, *ReachWitness) { return cond.CheckKReach(g, k, f) }

// Mutation is one composed mutator layer of a FaultSpec.
type Mutation struct {
	Kind   string      `json:"kind"`
	Params FaultParams `json:"params,omitempty"`
}

// FaultKinds lists the adversary fault kinds, sorted — "crash",
// "delayedequiv", "equivocate", "extreme", "noise", "replay", "silent",
// "split", "tamper".
func FaultKinds() []string { return adversary.Adversaries() }

// FaultDefaults returns the fault kind's parameters with their default
// values, plus a one-line description (for catalogs and CLIs).
func FaultDefaults(kind string) (params map[string]float64, doc string, err error) {
	defs, err := adversary.Defaults(kind)
	if err != nil {
		return nil, "", fmt.Errorf("repro: %w", err)
	}
	return defs, adversary.Doc(kind), nil
}

// LinkFault is one Byzantine link-failure rule, applied per directed edge
// on every runtime: "drop", "duplicate" and "delay" match the listed
// edges; "partition" matches every edge crossing the listed node set's
// boundary. Params (see LinkFaultDefaults) tune probability, delay amount
// (delivery steps on the simulator, milliseconds on a cluster) and
// partition healing. Rules are seeded-deterministic per edge.
type LinkFault struct {
	Kind   string             `json:"kind"`
	Edges  [][2]int           `json:"edges,omitempty"`
	Nodes  []int              `json:"nodes,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
}

// linkRules converts link-fault rules to the linkfault package's form.
func linkRules(ls []LinkFault) []linkfault.Rule {
	rules := make([]linkfault.Rule, len(ls))
	for i, l := range ls {
		rules[i] = linkfault.Rule{Kind: l.Kind, Edges: l.Edges, Nodes: l.Nodes, Params: l.Params}
	}
	return rules
}

// LinkFaultKinds lists the link-fault rule kinds, sorted.
func LinkFaultKinds() []string { return linkfault.Kinds() }

// LinkFaultDefaults returns the rule kind's parameters with their default
// values, plus a one-line description.
func LinkFaultDefaults(kind string) (params map[string]float64, doc string, err error) {
	defs, err := linkfault.Defaults(kind)
	if err != nil {
		return nil, "", fmt.Errorf("repro: %w", err)
	}
	return defs, linkfault.Doc(kind), nil
}

// linkFaultSeedSalt decouples the link-fault streams from the schedule and
// adversary streams derived from the same run seed.
const linkFaultSeedSalt = 0x11f4

// FZero is the sentinel for Options.F and Scenario.F requesting an explicit
// zero fault bound. A literal 0 means "default" (= 1) everywhere for
// backward compatibility, so f = 0 needs its own spelling.
const FZero = -1

// Options parameterizes a protocol run.
type Options struct {
	// F is the resilience parameter (default 1; FZero = explicit 0).
	F int
	// K is the a-priori input range bound; defaults to max(|input|) so that
	// the honest input spread is covered whatever the signs.
	K float64
	// Eps is the agreement parameter (default 0.1).
	Eps float64
	// Seed drives both the asynchrony schedule and randomized faults.
	Seed int64
	// Policy names the asynchrony schedule policy deciding which in-flight
	// message is delivered next: "random" (default), "fifo", "lifo" or
	// "bounded"; see Policies. Stateful policies are seeded with Seed.
	Policy string
	// PolicyParams carries the policy's named numeric knobs (e.g.
	// {"bound": 8} for "bounded"). Unknown names are rejected.
	PolicyParams map[string]float64
	// Observer, when non-nil, streams execution events (deliveries, holds,
	// releases, per-round value snapshots) as the run progresses; see
	// Observer. It never perturbs the schedule. When the Options are fanned
	// across parallel runs (RunSeeds), the one Observer is shared by every
	// run and is invoked from concurrent worker goroutines — it must be
	// goroutine-safe there (JSONLObserver is).
	Observer Observer
	// RecordTrace captures the full delivery schedule into Result.Trace.
	RecordTrace bool
	// Faults lists the faulty nodes and their behaviors, at most one entry
	// per node of the graph; see FaultSpec. An unknown kind or param, a node
	// outside the graph or a node listed twice is a hard error.
	Faults []FaultSpec
	// LinkFaults lists Byzantine link-failure rules applied per directed
	// edge, in order; see LinkFault. Enforced by every runtime: at the
	// simulator's injection boundary and on cluster nodes' send paths.
	LinkFaults []LinkFault
	// Rounds overrides the log2(K/Eps) round bound for protocols that
	// take an explicit round count (iterative baseline).
	Rounds int
}

func (o *Options) normalize(inputs []float64) {
	switch o.F {
	case 0:
		o.F = 1
	case FZero:
		// Explicitly requested zero fault bound: the full protocol machinery
		// runs (flooding, consistency conditions, verification), with no
		// adversary tolerance. The scale studies use this to measure the
		// delivery core without the f >= 1 thread multiplicity.
		o.F = 0
	}
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if o.K == 0 {
		// max(|x|), not max(x): with all-negative inputs the latter collapses
		// to the floor of 1, violating the a-priori range bound the round
		// count log2(K/eps) is derived from. For non-negative inputs the two
		// coincide.
		for _, x := range inputs {
			o.K = math.Max(o.K, math.Abs(x))
		}
		if o.K == 0 {
			o.K = 1
		}
	}
}

// Result reports a protocol execution.
type Result struct {
	// Outputs holds each honest node's decision.
	Outputs map[int]float64
	// Honest is the set of non-faulty nodes.
	Honest NodeSet
	// Spread is max-min over honest outputs.
	Spread float64
	// Converged reports Spread < Eps, Decided that all honest nodes output.
	Converged bool
	Decided   bool
	// ValidityOK reports that outputs stayed within the honest input range;
	// for a vector decision, that every honest origin's slot holds its input.
	ValidityOK bool
	// Steps is the number of message deliveries; MessagesSent the number of
	// sends (they differ only when a run is cut short).
	Steps        int
	MessagesSent int
	ByKind       map[string]int
	// Histories holds per-round state values of honest nodes where the
	// protocol records them.
	Histories map[int][]float64
	// Vectors holds per-node decision vectors for protocols whose decision
	// is a vector rather than a scalar (the exact tier's ACS: agreed origin
	// -> agreed value). Empty for scalar protocols.
	Vectors map[int]map[int]float64
	// Trace is the delivery schedule, one message per line, recorded only
	// when Options.RecordTrace is set. Identical seeds yield identical
	// traces.
	Trace string
	// LinkStats counts link-fault interventions (zero when the run had no
	// link-fault rules). Reported by the simulator and the cluster
	// runtimes alike.
	LinkStats LinkFaultStats
}

// LinkFaultStats counts a run's link-fault interventions: sends dropped,
// extra copies fabricated, and copies delayed.
type LinkFaultStats struct {
	Dropped, Duplicated, Delayed int
}

// Handler is one node's protocol endpoint — the machine interface both the
// simulator and the live cluster runtimes execute (an alias of
// sim.Handler, like Observer).
type Handler = sim.Handler

// HandlerFactory builds the protocol machine for one vertex of a run.
type HandlerFactory = func(id int) (Handler, error)

// BuilderFunc prepares one run's shared protocol context (path
// enumerations, round bounds, structural validation) and returns the
// per-vertex machine factory. It receives opts with F, K and Eps already
// normalized. Builders are what the live cluster runtimes consume; see
// RegisterBuilder.
type BuilderFunc func(g *Graph, inputs []float64, opts Options) (HandlerFactory, error)

// armed is one run resolved once — graph, inputs, normalized options,
// builder and fault plan — from which every runtime arms its machines: the
// simulator (simRun), the one-shot cluster runtimes (Scenario.RunOn) and the
// service tier (InstanceFactory, once per instance). A seed picks the run:
// the builder sees it as Options.Seed, vertex v's adversary draws from
// adversary.NodeSeed(seed, v) and the link faults from seedmix.Mix(seed,
// linkFaultSeedSalt), so one seed arms the same machines and the same link
// fates on every runtime.
type armed struct {
	g      *Graph
	inputs []float64
	opts   Options
	build  BuilderFunc
	// faults holds each faulty vertex's adversary; honest is the rest.
	faults map[int]adversary.Spec
	honest NodeSet
}

// arm resolves a run: it normalizes opts and refuses, before any machine
// is built, inputs of the wrong arity and a fault list the graph cannot
// carry (see faultPlan).
func arm(g *Graph, inputs []float64, opts Options, build BuilderFunc) (*armed, error) {
	if len(inputs) != g.N() {
		return nil, fmt.Errorf("repro: %d inputs for %d nodes", len(inputs), g.N())
	}
	faults, err := faultPlan(opts.Faults, g.N())
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	opts.normalize(inputs)
	honest := graph.FullSet(g.N())
	for v := range faults {
		honest = honest.Remove(v)
	}
	return &armed{g: g, inputs: inputs, opts: opts, build: build, faults: faults, honest: honest}, nil
}

// factory runs the builder at seed: the machine factory of one run, or of
// one service instance.
func (a *armed) factory(seed int64) (HandlerFactory, error) {
	opts := a.opts
	opts.Seed = seed
	return a.build(a.g, a.inputs, opts)
}

// machines arms every vertex at seed, from one build.
func (a *armed) machines(seed int64) ([]Handler, error) {
	factory, err := a.factory(seed)
	if err != nil {
		return nil, err
	}
	handlers := make([]Handler, a.g.N())
	for v := range handlers {
		if handlers[v], err = a.machine(factory, seed, v); err != nil {
			return nil, err
		}
	}
	return handlers, nil
}

// machine arms vertex v from factory: its protocol machine, wrapped by its
// adversary when the run marks v faulty — never a silent fall-back to the
// honest machine.
func (a *armed) machine(factory HandlerFactory, seed int64, v int) (Handler, error) {
	inner, err := factory(v)
	if err != nil {
		return nil, err
	}
	spec, bad := a.faults[v]
	if !bad {
		return inner, nil
	}
	h, err := adversary.BuildHandler(v, spec, inner, adversary.NodeSeed(seed, v))
	if err != nil {
		return nil, fmt.Errorf("repro: fault at node %d: %w", v, err)
	}
	return h, nil
}

// links compiles the run's link-fault rules at seed; nil when it has none.
func (a *armed) links(seed int64) (*linkfault.Set, error) {
	set, err := linkfault.New(a.g, linkRules(a.opts.LinkFaults), seedmix.Mix(seed, linkFaultSeedSalt))
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return set, nil
}

// historyProvider is implemented by machines that record per-round values.
type historyProvider interface{ History() []float64 }

// vectorProvider is implemented by machines whose decision is a vector
// (acs.Machine); nil until the node has decided.
type vectorProvider interface{ Vector() map[int]float64 }

// result completes res, which the runtime filled with its outputs, decision
// and traffic, from the machines it ran and their link faults: the honest
// set, the honest machines' histories and decision vectors, the link-fault
// counts, and the agreement metrics (Spread, ValidityOK, Converged) every
// runtime is judged by.
func (a *armed) result(res *Result, handlers []Handler, links *linkfault.Set) *Result {
	res.Honest = a.honest
	res.Histories = make(map[int][]float64, a.honest.Count())
	res.Vectors = make(map[int]map[int]float64)
	lo, hi := math.Inf(1), math.Inf(-1)
	slots := true // every honest origin's slot holds that origin's input
	a.honest.ForEach(func(v int) bool {
		lo, hi = math.Min(lo, a.inputs[v]), math.Max(hi, a.inputs[v])
		if hp, ok := handlers[v].(historyProvider); ok {
			res.Histories[v] = hp.History()
		}
		if vp, ok := handlers[v].(vectorProvider); ok {
			if vec := vp.Vector(); vec != nil {
				res.Vectors[v] = vec
				for o, x := range vec {
					slots = slots && (!a.honest.Has(o) || x == a.inputs[o])
				}
			}
		}
		return true
	})
	d, du, de := links.Counts()
	res.LinkStats = LinkFaultStats{Dropped: d, Duplicated: du, Delayed: de}
	omin, omax := math.Inf(1), math.Inf(-1)
	for _, x := range res.Outputs {
		omin, omax = math.Min(omin, x), math.Max(omax, x)
	}
	if len(res.Outputs) > 0 {
		res.Spread = omax - omin
		// A faulty origin's slot may hold anything and pull the mean out of
		// the honest range, so a vector decision is judged by its slots.
		res.ValidityOK = slots && (len(res.Vectors) > 0 || (omin >= lo && omax <= hi))
	}
	res.Converged = res.Decided && res.Spread < a.opts.Eps
	return res
}

// buildBW is Algorithm BW's BuilderFunc.
func buildBW(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	proto, err := bw.NewProto(g, opts.F, opts.K, opts.Eps, 0)
	if err != nil {
		return nil, err
	}
	return func(id int) (Handler, error) {
		return bw.NewMachine(proto, id, inputs[id])
	}, nil
}

// buildAAD is the Abraham–Amit–Dolev baseline's BuilderFunc.
func buildAAD(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	if g.M() != g.N()*(g.N()-1) {
		return nil, errors.New("repro: AAD requires a complete graph")
	}
	rounds := bw.RoundsFor(opts.K, opts.Eps)
	return func(id int) (Handler, error) {
		return aad.NewMachine(g.N(), opts.F, id, rounds, inputs[id])
	}, nil
}

// buildCrashApprox is the 2-reach crash-fault algorithm's BuilderFunc.
func buildCrashApprox(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	proto, err := crashapprox.NewProto(g, opts.F, opts.K, opts.Eps, 0)
	if err != nil {
		return nil, err
	}
	return func(id int) (Handler, error) {
		return crashapprox.NewMachine(proto, id, inputs[id])
	}, nil
}

// buildIterative is the local trimmed-mean baseline's BuilderFunc.
func buildIterative(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	rounds := opts.Rounds
	if rounds == 0 {
		rounds = bw.RoundsFor(opts.K, opts.Eps)
	}
	// One arena per build, which is per run: the simulator mints every
	// vertex's machine from this factory, in one goroutine.
	arena := new(iterative.Arena)
	return func(id int) (Handler, error) {
		return iterative.NewMachine(g, opts.F, id, rounds, inputs[id], arena)
	}, nil
}

// buildABA is the exact tier's binary-agreement BuilderFunc: MMR-style ABA
// with the seeded deterministic common coin. Inputs map to proposal bits
// (nonzero -> 1); the decision is 0 or 1.
func buildABA(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	if g.M() != g.N()*(g.N()-1) {
		return nil, errors.New("repro: ABA requires a complete graph")
	}
	if g.N() <= 3*opts.F {
		return nil, fmt.Errorf("repro: ABA requires n > 3f (n=%d, f=%d)", g.N(), opts.F)
	}
	return func(id int) (Handler, error) {
		bit := 0
		if inputs[id] != 0 {
			bit = 1
		}
		return aba.NewMachine(g.N(), opts.F, id, opts.Seed, bit), nil
	}, nil
}

// buildACS is the exact tier's agreement-on-a-common-subset BuilderFunc:
// n reliable broadcasts plus n ABA instances (BKR). The scalar output is
// the mean of the agreed subset's values; the full vector is surfaced as
// Result.Vectors.
func buildACS(g *Graph, inputs []float64, opts Options) (HandlerFactory, error) {
	if g.M() != g.N()*(g.N()-1) {
		return nil, errors.New("repro: ACS requires a complete graph")
	}
	return func(id int) (Handler, error) {
		return acs.New(g.N(), opts.F, id, opts.Seed, inputs[id])
	}, nil
}

// RunNecessity executes the Theorem 18 construction on a graph violating
// 3-reach; see adversary.RunNecessity.
func RunNecessity(g *Graph, f int, k, eps float64, seed int64) (*NecessityResult, error) {
	return adversary.RunNecessity(g, f, k, eps, seed)
}

// BWRounds exposes the paper's termination bound r > log2(K/eps).
func BWRounds(k, eps float64) int { return bw.RoundsFor(k, eps) }

// EngineNames reports the one delivery loop the simulator has. Kept until
// bench/micro.go's parallelSpeedup, its last caller, is retired.
func EngineNames() []string { return []string{"inline"} }

// RunFunc is the signature of a protocol's simulator face: one complete
// execution of g with the given inputs (see Register, ProtocolByName).
type RunFunc func(g *Graph, inputs []float64, opts Options) (*Result, error)

// RunSeeds executes run across n consecutive seeds starting at opts.Seed,
// fanning the independent executions over a worker pool (workers < 1 means
// one per CPU, 1 runs sequentially). Results come back in seed order and
// are identical to n sequential calls — the runs share no mutable state, so
// parallelism cannot perturb the seeded schedules. Cancelling ctx stops the
// sweep between runs (individual simulator executions are not interrupted
// mid-run) and returns ctx.Err(); a nil ctx means context.Background().
func RunSeeds(ctx context.Context, run RunFunc, g *Graph, inputs []float64, opts Options, n, workers int) ([]*Result, error) {
	return par.Map(ctx, workers, n, func(i int) (*Result, error) {
		o := opts
		o.Seed = opts.Seed + int64(i)
		return run(g, inputs, o)
	})
}
