package experiments_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/experiments"
)

func TestExactMatrixAllPass(t *testing.T) {
	rep, err := experiments.RunExactExec(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both exact protocols cross every rung with the full adversary axis:
	// the honest baseline, every registered fault kind, and the two
	// composed cells.
	perRung := len(repro.FaultKinds()) + 3
	if want := 2 * 4 * perRung; len(rep.Rows) != want {
		t.Fatalf("matrix has %d rows, want %d", len(rep.Rows), want)
	}
	if !rep.AllPassed() {
		t.Fatalf("exact matrix failures:\n%s", rep.Render())
	}
	for _, row := range rep.Rows {
		if row.Protocol != "acs" {
			continue
		}
		switch row.Adversary {
		case "silent", "silent+linkfaults", "equivocate":
			// Silent origins never broadcast and equivocating origins
			// never assemble an echo quorum, so the agreed subset is
			// exactly the honest n−f — the acceptance bar the issue pins.
			if row.Subset != row.N-row.F {
				t.Errorf("%s: subset %d, want exactly n-f=%d", row.Name, row.Subset, row.N-row.F)
			}
		}
	}
	// The expander family cannot satisfy the exact tier's complete-graph
	// requirement; it must be reported as skipped, not silently absent.
	if len(rep.Skipped) != 2 {
		t.Fatalf("skips: %v", rep.Skipped)
	}
}

// TestExactMatrixDeterministicAcrossWorkers: the acceptance facts are
// identical whatever the sweep fan-out — only wall times move.
func TestExactMatrixDeterministicAcrossWorkers(t *testing.T) {
	strip := func(rep experiments.ExactReport) []experiments.ExactRow {
		rows := make([]experiments.ExactRow, len(rep.Rows))
		copy(rows, rep.Rows)
		for i := range rows {
			rows[i].Ms = 0
		}
		return rows
	}
	base, err := experiments.RunExactExec(context.Background(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 2} {
		got, err := experiments.RunExactExec(context.Background(), 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(strip(got), strip(base)) {
			t.Fatalf("report diverged at workers=%d", workers)
		}
	}
}

// TestExactBenchRuns pins the E15 -json cell mapping.
func TestExactBenchRuns(t *testing.T) {
	rep, err := experiments.RunExactExec(context.Background(), 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := rep.BenchRuns()
	if len(runs) != len(rep.Rows) {
		t.Fatalf("%d cells for %d rows", len(runs), len(rep.Rows))
	}
	for i, r := range runs {
		row := rep.Rows[i]
		if r.Name != row.Name || r.Runtime != "sim" || r.Adversary != row.Adversary ||
			r.Protocol != row.Protocol || r.Family != row.Family ||
			r.N != row.N || r.F != row.F || r.Subset != row.Subset ||
			r.Decided != row.Decided || r.Converged != row.Converged || r.Valid != row.Validity {
			t.Fatalf("cell %d diverges from row: %+v vs %+v", i, r, row)
		}
	}
}
