package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bw"
)

// mustPass runs the suite over one worker per CPU and fails the test with
// the rendered report when any cell or check misses its claim.
func mustPass(t *testing.T, su Suite) Report {
	t.Helper()
	rep, err := su.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.Failures(); len(f) > 0 {
		t.Fatalf("%s misses %d claims:\n%s", su.Name, len(f), rep.Render())
	}
	return rep
}

// wantShape pins how many cells ran and how many facts were checked, so a
// claim cannot drop out of a suite unnoticed.
func wantShape(t *testing.T, rep Report, rows, checks int) {
	t.Helper()
	if len(rep.Rows) != rows || len(rep.Checks) != checks {
		t.Fatalf("%s: %d rows and %d checks, want %d and %d:\n%s", rep.Suite.Name, len(rep.Rows), len(rep.Checks), rows, checks, rep.Render())
	}
}

func TestTable1NoMismatches(t *testing.T) {
	samples := 6
	if testing.Short() {
		samples = 2
	}
	rep := mustPass(t, table1(samples, 42))
	wantShape(t, rep, 0, 24)
	if !strings.Contains(rep.Render(), "verdict: 24 of 24 cells and checks meet their claims") {
		t.Error("render missing summary")
	}
}

func TestTable2NoMismatches(t *testing.T) {
	samples := 10
	if testing.Short() {
		samples = 3
	}
	// The first check is "every equivalence saw at least 64 graphs".
	wantShape(t, mustPass(t, table2(samples, 7)), 0, 4)
}

func TestFig1a(t *testing.T) {
	wantShape(t, mustPass(t, fig1a(3)), 1, 3)
}

func TestFig1b(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=14 check")
	}
	wantShape(t, mustPass(t, fig1b(5)), 1, 5)
}

func TestSufficiencyMatrix(t *testing.T) {
	wantShape(t, mustPass(t, sufficiency(11)), 3*7, 0)
}

func TestConvergenceBound(t *testing.T) {
	// One bound per round plus the final spread below eps.
	wantShape(t, mustPass(t, convergence(13)), 1, bw.RoundsFor(8, 0.2)+1)
}

func TestNecessity(t *testing.T) {
	wantShape(t, mustPass(t, necessity(17)), 0, 2)
}

func TestAADComparison(t *testing.T) {
	// Both protocols converge on K4 and K5, AAD is no costlier on either,
	// and BW pays a strict flooding overhead on K5.
	wantShape(t, mustPass(t, aadComparison(19)), 4, 3)
}

func TestIterativeAblation(t *testing.T) {
	rep := mustPass(t, iterativeAblation(23))
	wantShape(t, rep, 3, 3)
	if rep.Rows[1].Converged || !rep.Rows[0].Converged || !rep.Rows[2].Converged {
		t.Fatalf("ablation rows:\n%s", rep.Render())
	}
}

func TestKReachHierarchy(t *testing.T) {
	wantShape(t, mustPass(t, kreach()), 0, 25)
}

func TestStructureTheorems(t *testing.T) {
	if testing.Short() {
		t.Skip("K7 f=2 structure check is heavy")
	}
	wantShape(t, mustPass(t, structure()), 0, 10)
}

func TestCrashCell(t *testing.T) {
	wantShape(t, mustPass(t, crashCell(29)), 1, 1)
}

func TestScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size BW runs")
	}
	// At least three rungs ran and messages grow strictly with n.
	rep := mustPass(t, scaling(31))
	wantShape(t, rep, 4, 2)
	if len(rep.Suite.Notes) != 0 {
		t.Fatalf("every circulant rung satisfies 3-reach, notes: %v", rep.Suite.Notes)
	}
}
