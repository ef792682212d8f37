package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro"
)

func TestExactMatrixAllPass(t *testing.T) {
	// Both exact protocols cross every rung with their adversary axis: the
	// honest baseline, every fault kind the protocol accepts, and the two
	// composed cells. Each refused kind is a note, beside the expander's.
	rows, notes := 0, 2
	for _, protocol := range []string{"aba", "acs"} {
		rows += 4 * (len(repro.FaultKindsFor(protocol)) + 3)
		notes += len(repro.FaultKinds()) - len(repro.FaultKindsFor(protocol))
	}
	rep := mustPass(t, exact(1))
	wantShape(t, rep, rows, 0)
	if len(rep.Suite.Notes) != notes {
		t.Errorf("%d notes %v, want %d", len(rep.Suite.Notes), rep.Suite.Notes, notes)
	}
	exactSubsets := 0
	for _, row := range rep.Rows {
		e := row.Cell.Expect
		if row.Protocol != "acs" {
			if e.Subset != 0 {
				t.Errorf("%s: scalar protocol with a subset claim", row.Name)
			}
			continue
		}
		// Silent origins never broadcast and equivocating origins never
		// assemble an echo quorum, so the agreed subset is exactly the
		// honest n−f; every other acs row agrees on at least n−f.
		g, err := repro.NamedGraph(row.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if e.Subset != g.N()-row.Cell.Scenario.F {
			t.Errorf("%s: subset claim %d, want n-f=%d", row.Name, e.Subset, g.N()-row.Cell.Scenario.F)
		}
		if e.ExactSubset {
			exactSubsets++
		}
	}
	if exactSubsets != 3*4 {
		t.Errorf("%d acs rows claim an exact subset, want silent, silent+linkfaults and equivocate on 4 rungs", exactSubsets)
	}
	// The expander family cannot satisfy the exact tier's complete-graph
	// requirement; it must be reported as skipped, not silently absent.
	for _, protocol := range []string{"aba", "acs"} {
		if want := "exact-" + protocol + "-expander: "; !slices.ContainsFunc(rep.Suite.Notes, func(n string) bool { return strings.HasPrefix(n, want) }) {
			t.Errorf("no %q note in %v", want, rep.Suite.Notes)
		}
	}
}

// TestExactBenchRuns pins the -json cell mapping.
func TestExactBenchRuns(t *testing.T) {
	rep, err := exact(9).Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := rep.BenchRuns()
	if len(runs) != len(rep.Rows) {
		t.Fatalf("%d cells for %d rows", len(runs), len(rep.Rows))
	}
	for i, r := range runs {
		row := rep.Rows[i]
		s, out := row.Cell.Scenario, row.Result
		subset := 0
		for _, vec := range out.Vectors {
			if subset == 0 || len(vec) < subset {
				subset = len(vec)
			}
		}
		if r.Name != s.Name || r.Label != row.Cell.Label || r.Runtime != "sim" ||
			r.Protocol != s.Protocol || r.Graph != s.Graph || r.Subset != subset ||
			r.Steps != out.Steps || r.Sends != out.MessagesSent ||
			r.Decided != out.Decided || r.Converged != out.Converged || r.Valid != out.ValidityOK {
			t.Fatalf("cell %d diverges from its run: %+v vs %+v", i, r, out)
		}
	}
}
