package experiments_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
)

func TestRandomSweep(t *testing.T) {
	count := 8
	if testing.Short() {
		count = 3
	}
	rep, err := experiments.RunSweepExec(context.Background(), count, 1234, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < count {
		t.Fatalf("only %d of %d runs completed (candidates=%d, satisfying=%d)",
			len(rep.Rows), count, rep.Candidates, rep.Satisfying)
	}
	if !rep.AllPassed() {
		t.Fatalf("sweep failures:\n%s", rep.Render())
	}
}

// TestSweepDeterministicAcrossWorkers pins the parallel runner's core
// guarantee: the report is byte-identical whatever the worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	count := 4
	if testing.Short() {
		count = 2
	}
	base, err := experiments.RunSweepExec(context.Background(), count, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) < count {
		t.Fatalf("only %d of %d runs completed", len(base.Rows), count)
	}
	for _, workers := range []int{4, 0} { // 0: one worker per CPU
		rep, err := experiments.RunSweepExec(context.Background(), count, 99, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Render() != base.Render() {
			t.Fatalf("workers=%d diverged from sequential run:\n%s\nvs\n%s",
				workers, rep.Render(), base.Render())
		}
	}
}
