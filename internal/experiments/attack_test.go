package experiments_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/experiments"
)

func TestAttackMatrixAllPass(t *testing.T) {
	rep, err := experiments.RunAttackMatrix(777)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered adversary appears for every target protocol, plus
	// the composed and link-fault cells.
	perTarget := len(repro.FaultKinds()) + 2
	if len(rep.Rows) < 3*perTarget {
		t.Fatalf("matrix has %d rows, want at least %d", len(rep.Rows), 3*perTarget)
	}
	if !rep.AllPassed() {
		t.Fatalf("attack matrix failures:\n%s", rep.Render())
	}
	sawLink := false
	for _, row := range rep.Rows {
		if row.LinkStats.Duplicated > 0 || row.LinkStats.Delayed > 0 {
			sawLink = true
		}
	}
	if !sawLink {
		t.Error("no link-fault cell reported interventions")
	}
}

// TestAttackMatrixDeterministicAcrossWorkers extends the sweep determinism
// guarantee to the attack matrix: the report is byte-identical whatever the
// worker count.
func TestAttackMatrixDeterministicAcrossWorkers(t *testing.T) {
	base, err := experiments.RunAttackMatrixExec(context.Background(), 5, experiments.Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []experiments.Exec{
		{Workers: 4},
		{Workers: 0}, // one worker per CPU
	} {
		rep, err := experiments.RunAttackMatrixExec(context.Background(), 5, exec)
		if err != nil {
			t.Fatalf("%+v: %v", exec, err)
		}
		if rep.Render() != base.Render() {
			t.Fatalf("%+v diverged:\n%s\nvs\n%s", exec, rep.Render(), base.Render())
		}
	}
}
