package cond

import (
	"fmt"

	"repro/internal/graph"
)

// This file checks the structural lemmas the algorithm's proof rests on:
//
//   - Theorem 5: on a 3-reach graph, for any F1 and F2 ⊆ complement(F1)
//     (each of size <= f), the source component S_{F1,F2} propagates (with
//     f+1 node-disjoint paths) in the subgraph avoiding F1 to every node
//     outside F1 ∪ S, and likewise avoiding F2.
//   - Theorem 12: for any Fv and any Fu, Fw ⊆ complement(Fv), the source
//     components S_{Fv,Fu} and S_{Fv,Fw} overlap.
//   - Definition 6's side conditions: source components are nonempty (on
//     3-reach graphs) and strongly connected in the reduced graph.
//
// Experiment E11 runs these checkers over graph families.

// StructureReport aggregates the outcome of the structural checks.
type StructureReport struct {
	PairsChecked   int
	TriplesChecked int
	Failure        string // empty when all checks pass
}

// Ok reports whether all checks passed.
func (r StructureReport) Ok() bool { return r.Failure == "" }

// CheckTheorem5 verifies Theorem 5 for every admissible (F1, F2) pair.
func CheckTheorem5(g *graph.Graph, f int) StructureReport {
	var rep StructureReport
	all := g.Nodes()
	graph.Subsets(all, f, func(f1 graph.Set) bool {
		ok := true
		graph.Subsets(all.Minus(f1), f, func(f2 graph.Set) bool {
			rep.PairsChecked++
			s := g.SourceComponent(f1, f2)
			if s.Empty() {
				rep.Failure = fmt.Sprintf("S_{%s,%s} empty", f1, f2)
				ok = false
				return false
			}
			red := g.Reduced(f1, f2)
			if !red.StronglyConnectedWithin(s) {
				rep.Failure = fmt.Sprintf("S_{%s,%s}=%s not strongly connected in reduced graph", f1, f2, s)
				ok = false
				return false
			}
			// S ~G_{complement(F1)}~> complement(F1) \ S, and same for F2.
			for _, excl := range []graph.Set{f1, f2} {
				target := all.Minus(excl).Minus(s)
				if !g.Propagates(s, target, all.Minus(excl), f) {
					rep.Failure = fmt.Sprintf("S_{%s,%s}=%s does not propagate avoiding %s", f1, f2, s, excl)
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	})
	return rep
}

// CheckTheorem12 verifies Theorem 12 for every admissible (Fv, Fu, Fw)
// triple: S_{Fv,Fu} ∩ S_{Fv,Fw} != ∅.
func CheckTheorem12(g *graph.Graph, f int) StructureReport {
	var rep StructureReport
	all := g.Nodes()
	graph.Subsets(all, f, func(fv graph.Set) bool {
		// Collect the source components S_{Fv,·} once per Fv.
		type entry struct {
			fu graph.Set
			s  graph.Set
		}
		var entries []entry
		graph.Subsets(all.Minus(fv), f, func(fu graph.Set) bool {
			entries = append(entries, entry{fu: fu, s: g.SourceComponent(fv, fu)})
			return true
		})
		for i := range entries {
			for j := i + 1; j < len(entries); j++ {
				rep.TriplesChecked++
				if !entries[i].s.Intersects(entries[j].s) {
					rep.Failure = fmt.Sprintf(
						"S_{%s,%s}=%s disjoint from S_{%s,%s}=%s",
						fv, entries[i].fu, entries[i].s, fv, entries[j].fu, entries[j].s)
					return false
				}
			}
		}
		return true
	})
	return rep
}
