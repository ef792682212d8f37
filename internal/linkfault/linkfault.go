// Package linkfault models Byzantine link failures: per-directed-edge fault
// rules — drop, duplicate, delay, partition — applied to every send crossing
// a matched edge, independently of whether the endpoints are honest. This is
// the fault class of Tseng & Vaidya's Byzantine links (arXiv:1401.6615) and
// the local-broadcast edge faults of Khan & Vaidya (arXiv:1909.02865): the
// node is correct, the wire lies.
//
// A compiled Set is runtime-agnostic. The simulator applies it when a sent
// message is injected into the transport pool (delays are measured in
// delivery steps); the live cluster transports apply it on each node's send
// path (delays are measured in milliseconds). Decisions are seeded and
// deterministic per edge: every (rule, edge) pair owns an independent
// splitmix-derived rand stream, so the fate of the k-th send on an edge is a
// pure function of (seed, rule index, edge, k) — identical across runs,
// and identical across the per-process Sets of a multi-process cluster,
// which each consult only their own out-edges.
package linkfault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/seedmix"
)

// Rule is one declarative link-fault rule. Drop, duplicate and delay match
// the explicitly listed directed edges; partition matches every edge
// crossing the boundary of the listed node set (in both directions).
type Rule struct {
	// Kind is a registered rule kind; see Kinds.
	Kind string
	// Edges lists the matched directed edges (drop, duplicate, delay).
	Edges [][2]int
	// Nodes lists one side of the cut (partition).
	Nodes []int
	// Params carries the kind's named knobs; see Defaults.
	Params map[string]float64
}

// Rule kinds.
const (
	// KindDrop discards each matched send with probability prob.
	KindDrop = "drop"
	// KindDuplicate re-sends each matched send with probability prob.
	KindDuplicate = "duplicate"
	// KindDelay holds each matched send (probability prob) for amount
	// units: delivery steps on the simulator, milliseconds on a cluster.
	KindDelay = "delay"
	// KindPartition drops every send crossing the node-set boundary; with
	// heal > 0 the partition heals after heal matched sends per edge.
	KindPartition = "partition"
)

// Kinds lists the rule kinds, sorted.
func Kinds() []string {
	return []string{KindDelay, KindDrop, KindDuplicate, KindPartition}
}

// Defaults returns the kind's accepted params with their default values.
func Defaults(kind string) (map[string]float64, error) {
	switch kind {
	case KindDrop:
		return map[string]float64{"prob": 1}, nil
	case KindDuplicate:
		return map[string]float64{"prob": 1}, nil
	case KindDelay:
		return map[string]float64{"prob": 1, "amount": 20}, nil
	case KindPartition:
		return map[string]float64{"heal": 0}, nil
	default:
		return nil, fmt.Errorf("linkfault: unknown link fault kind %q (valid values are: %v)", kind, Kinds())
	}
}

// Doc returns a one-line description of the kind for catalogs.
func Doc(kind string) string {
	switch kind {
	case KindDrop:
		return "discards each send on the listed edges with probability prob"
	case KindDuplicate:
		return "re-sends each send on the listed edges with probability prob"
	case KindDelay:
		return "holds each send on the listed edges (probability prob) for amount units (sim: delivery steps, cluster: ms)"
	case KindPartition:
		return "drops every send crossing the listed node set's boundary; heal > 0 restores each edge after heal matched sends"
	default:
		return ""
	}
}

// maxCount bounds amount and heal: below 2^53 every whole float64 is exact
// and converts to int unchanged.
const maxCount = 1 << 53

// validate checks the rule against a graph of order n with edge predicate
// hasEdge, rejecting unknown kinds, unknown params, and edge/node lists
// that do not fit the rule shape or the topology.
func (r Rule) validate(n int, hasEdge func(u, v int) bool) error {
	defs, err := Defaults(r.Kind)
	if err != nil {
		return err
	}
	for k := range r.Params {
		if _, ok := defs[k]; !ok {
			valid := make([]string, 0, len(defs))
			for name := range defs {
				valid = append(valid, name)
			}
			sort.Strings(valid)
			return fmt.Errorf("linkfault: %s: unknown param %q (valid params are: %v)", r.Kind, k, valid)
		}
	}
	// Written so that NaN, which compares false with everything, fails.
	if p, ok := r.Params["prob"]; ok && !(0 <= p && p <= 1) {
		return fmt.Errorf("linkfault: %s: prob %g outside [0, 1]", r.Kind, p)
	}
	// amount and heal are counts (New converts them with int): a fraction
	// would be saved as written and run truncated.
	for _, name := range []string{"amount", "heal"} {
		if x, ok := r.Params[name]; ok && !(0 <= x && x <= maxCount && x == math.Trunc(x)) {
			return fmt.Errorf("linkfault: %s: %s %g must be a non-negative whole number of at most 2^53", r.Kind, name, x)
		}
	}
	if r.Kind == KindPartition {
		if len(r.Edges) > 0 {
			return fmt.Errorf("linkfault: partition takes nodes, not edges")
		}
		if len(r.Nodes) == 0 {
			return fmt.Errorf("linkfault: partition needs a non-empty node set")
		}
		for _, v := range r.Nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("linkfault: partition node %d outside graph order %d", v, n)
			}
		}
		return nil
	}
	if len(r.Nodes) > 0 {
		return fmt.Errorf("linkfault: %s takes edges, not nodes", r.Kind)
	}
	if len(r.Edges) == 0 {
		return fmt.Errorf("linkfault: %s needs at least one edge", r.Kind)
	}
	for _, e := range r.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("linkfault: edge %d->%d outside graph order %d", e[0], e[1], n)
		}
		if !hasEdge(e[0], e[1]) {
			return fmt.Errorf("linkfault: %d->%d is not an edge of the graph", e[0], e[1])
		}
	}
	return nil
}

// Validate checks rules against g without compiling them (the decode-time
// entry point).
func Validate(g *graph.Graph, rules []Rule) error {
	for i, r := range rules {
		if err := r.validate(g.N(), g.HasEdge); err != nil {
			return fmt.Errorf("linkFaults[%d]: %w", i, err)
		}
	}
	return nil
}

// Fate is the outcome of one send: how many copies cross the link (0 means
// dropped) and how long each copy is delayed (0 means immediate; units are
// runtime-defined, see the package comment).
type Fate struct {
	Copies int
	Delay  int
}

// edgeRule is one rule's compiled per-edge state: its own seeded stream
// plus the partition heal counter. Each edgeRule is only ever touched by
// the goroutine that owns the edge's sender (the simulator loop, or one
// node's runner), so no locking is needed.
type edgeRule struct {
	kind    string
	prob    float64
	amount  int
	heal    int
	matched int
	rng     *rand.Rand
}

// stats counts a Set's interventions, aggregated across edges. Counters
// are atomic.Int64 (self-aligning, so 32-bit platforms are safe) because
// cluster runtimes consult the Set from concurrent node runners.
type stats struct {
	dropped, duplicated, delayed atomic.Int64
}

// Set is a compiled rule set: the per-edge rule chains plus intervention
// counters. A nil *Set is valid and applies no faults.
type Set struct {
	perEdge map[[2]int][]*edgeRule
	stats   stats
}

// New validates and compiles rules for g. Every (rule, edge) pair draws
// from an independent stream derived from seed, the rule index and the
// edge, so fates do not depend on cross-edge interleaving. Returns nil
// when rules is empty.
func New(g *graph.Graph, rules []Rule, seed int64) (*Set, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	if err := Validate(g, rules); err != nil {
		return nil, err
	}
	s := &Set{perEdge: make(map[[2]int][]*edgeRule)}
	for ri, r := range rules {
		defs, _ := Defaults(r.Kind)
		for k, v := range r.Params {
			defs[k] = v
		}
		for _, e := range matchedEdges(g, r) {
			er := &edgeRule{
				kind:   r.Kind,
				prob:   defs["prob"],
				amount: int(defs["amount"]),
				heal:   int(defs["heal"]),
				rng:    rand.New(rand.NewSource(seedmix.Mix(seed, int64(ri), int64(e[0]), int64(e[1])))),
			}
			s.perEdge[e] = append(s.perEdge[e], er)
		}
	}
	return s, nil
}

// matchedEdges resolves a rule's edge set against the topology.
func matchedEdges(g *graph.Graph, r Rule) [][2]int {
	if r.Kind != KindPartition {
		// Deduplicate: a doubly listed edge must not get two rule states.
		seen := make(map[[2]int]bool, len(r.Edges))
		out := make([][2]int, 0, len(r.Edges))
		for _, e := range r.Edges {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		return out
	}
	in := graph.EmptySet
	for _, v := range r.Nodes {
		in = in.Add(v)
	}
	var out [][2]int
	for _, e := range g.Edges() {
		if in.Has(e[0]) != in.Has(e[1]) {
			out = append(out, e)
		}
	}
	return out
}

// Next decides the fate of the next send on the directed edge from->to,
// advancing that edge's rule state. Rules apply in declaration order; a
// drop short-circuits. Safe to call concurrently for distinct edges with
// distinct sender goroutines (the cluster case); the simulator calls it
// from its single loop.
func (s *Set) Next(from, to int) Fate {
	fate := Fate{Copies: 1}
	for _, er := range s.perEdge[[2]int{from, to}] {
		switch er.kind {
		case KindDrop:
			if er.rng.Float64() < er.prob {
				s.stats.dropped.Add(1)
				return Fate{}
			}
		case KindDuplicate:
			if er.rng.Float64() < er.prob {
				s.stats.duplicated.Add(1)
				fate.Copies++
			}
		case KindDelay:
			if er.rng.Float64() < er.prob {
				s.stats.delayed.Add(1)
				fate.Delay += er.amount
			}
		case KindPartition:
			er.matched++
			if er.heal == 0 || er.matched <= er.heal {
				s.stats.dropped.Add(1)
				return Fate{}
			}
		}
	}
	return fate
}

// Counts returns the interventions so far: sends dropped, extra copies
// created, and copies delayed.
func (s *Set) Counts() (dropped, duplicated, delayed int) {
	if s == nil {
		return 0, 0, 0
	}
	return int(s.stats.dropped.Load()),
		int(s.stats.duplicated.Load()),
		int(s.stats.delayed.Load())
}
