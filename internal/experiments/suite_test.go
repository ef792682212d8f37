package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// requireDeterministicAcrossWorkers: su meets every claim sequentially and
// reports the same rows and checks at every worker count — only wall times
// move.
func requireDeterministicAcrossWorkers(t *testing.T, su Suite) {
	t.Helper()
	var base Report
	for _, workers := range []int{1, 4, 0} { // 0: one worker per CPU
		rep, err := su.Run(context.Background(), workers)
		if err != nil {
			t.Fatalf("%s at workers=%d: %v", su.Name, workers, err)
		}
		for i := range rep.Rows {
			rep.Rows[i].Ms = 0
		}
		if workers == 1 {
			if f := rep.Failures(); len(f) > 0 {
				t.Fatalf("%s missed claims sequentially: %q", su.Name, f)
			}
			base = rep
			continue
		}
		if !reflect.DeepEqual(rep.BenchRuns(), base.BenchRuns()) {
			t.Fatalf("%s at workers=%d: rows diverged from the sequential run", su.Name, workers)
		}
		if !reflect.DeepEqual(rep.Checks, base.Checks) {
			t.Fatalf("%s at workers=%d: checks %v diverged from the sequential run's %v", su.Name, workers, rep.Checks, base.Checks)
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	count := 4
	if testing.Short() {
		count = 2
	}
	requireDeterministicAcrossWorkers(t, sweep(count, 99))
}

func TestAttackMatrixDeterministicAcrossWorkers(t *testing.T) {
	requireDeterministicAcrossWorkers(t, attackMatrix(5))
}

func TestExactMatrixDeterministicAcrossWorkers(t *testing.T) {
	requireDeterministicAcrossWorkers(t, exact(5))
}

// TestFailuresNameTheMissedCell: a claim the run does not meet — E9's
// stalling iterative cell said to converge — is the one failure reported,
// and it names that cell; likewise for a check.
func TestFailuresNameTheMissedCell(t *testing.T) {
	su := iterativeAblation(1)
	su.Cells = append([]Cell(nil), su.Cells...)
	su.Cells[1].Expect = Expect{Outcome: Converges}
	rep, err := su.Run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Failures()
	if len(f) != 1 || !strings.Contains(f[0], su.Cells[1].Label) {
		t.Fatalf("failures = %q, want exactly the %q cell", f, su.Cells[1].Label)
	}
	if !strings.Contains(rep.Render(), "verdict: 5 of 6") {
		t.Errorf("render does not carry the miss:\n%s", rep.Render())
	}

	// A stated fact said the other way round is a miss too, named by its
	// check.
	su = kreach()
	checks := su.Checks
	su.Checks = func(rows []Row) []Check {
		c := checks(rows)
		c[0].Want = true // clique2 is not 2-reach
		return c
	}
	if rep, err = su.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if f := rep.Failures(); len(f) != 1 || !strings.Contains(f[0], "clique2 2-reach (f=1): got false, want true") {
		t.Fatalf("failures = %q, want exactly the clique2 2-reach check", f)
	}
}

// TestCellsReplayable: every cell of every suite is a scenario that
// `abacsim -scenario` can replay — its canonical JSON parses back to the
// same scenario and the same JSON, byte for byte. A cell's runtime is not
// part of its scenario: a loopback cell replays with `-runtime loopback`.
func TestCellsReplayable(t *testing.T) {
	cells := 0
	for _, su := range Catalog(1, 32) {
		for _, c := range su.Cells {
			blob, err := c.Scenario.JSON()
			if err != nil {
				t.Fatalf("%s %s: %v", su.Name, c.Label, err)
			}
			back, err := repro.ParseScenario(blob)
			if err != nil {
				t.Fatalf("%s %s: %v", su.Name, c.Label, err)
			}
			if !reflect.DeepEqual(*back, c.Scenario) {
				t.Fatalf("%s %s: the parsed scenario differs from the cell's:\n%+v\nvs\n%+v", su.Name, c.Label, *back, c.Scenario)
			}
			again, err := back.JSON()
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("%s %s: round trip changed the scenario (%v):\n%s\nvs\n%s", su.Name, c.Label, err, blob, again)
			}
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("no cells in the catalog")
	}
}

// TestExpectMiss: each outcome and subset bound against runs that meet and
// miss it.
func TestExpectMiss(t *testing.T) {
	ok := BenchRun{Decided: true, Converged: true, Valid: true}
	stalled := BenchRun{Decided: true, Valid: true}
	for _, c := range []struct {
		e    Expect
		r    BenchRun
		miss bool
	}{
		{Expect{}, ok, false},
		{Expect{}, BenchRun{Decided: true, Converged: true}, true}, // outside the honest range
		{Expect{}, stalled, true},
		{Expect{Outcome: DecidesOnly}, stalled, false},
		{Expect{Outcome: DecidesOnly}, BenchRun{}, true},
		{Expect{Outcome: Stalls}, stalled, false},
		{Expect{Outcome: Stalls}, ok, true},
		{Expect{Subset: 3}, BenchRun{Decided: true, Converged: true, Valid: true, Subset: 4}, false},
		{Expect{Subset: 3}, BenchRun{Decided: true, Converged: true, Valid: true, Subset: 2}, true},
		{Expect{Subset: 3, ExactSubset: true}, BenchRun{Decided: true, Converged: true, Valid: true, Subset: 3}, false},
		{Expect{Subset: 3, ExactSubset: true}, BenchRun{Decided: true, Converged: true, Valid: true, Subset: 4}, true},
	} {
		if got := c.e.miss(c.r); (got != "") != c.miss {
			t.Errorf("%s on %+v: miss %q, want a miss: %v", c.e, c.r, got, c.miss)
		}
	}
}
