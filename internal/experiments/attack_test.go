package experiments_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/experiments"
)

func TestAttackMatrixAllPass(t *testing.T) {
	rep, err := experiments.RunAttackMatrixExec(context.Background(), 777, 0)
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
	base, err := experiments.RunAttackMatrixExec(context.Background(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} { // 0: one worker per CPU
		rep, err := experiments.RunAttackMatrixExec(context.Background(), 5, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Render() != base.Render() {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, rep.Render(), base.Render())
		}
	}
}
