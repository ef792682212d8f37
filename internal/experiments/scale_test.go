package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
)

// TestScaleLadderShape pins the E14 cell matrix of the full ladder, built
// without certifying or running anything: every rung within the build
// dimension carries the three family scenarios, BW rows use the explicit
// zero fault bound, the large BW cells are simulator-only, and every
// absent runtime or rung is a note.
func TestScaleLadderShape(t *testing.T) {
	su := scale(1, 0)
	if !su.Sequential || su.Annotate == nil {
		t.Fatal("the ladder runs one cell at a time and certifies its graphs")
	}
	wantCells, wantNotes := 0, 0
	for _, n := range scaleSizes {
		switch {
		case n > graph.MaxNodes:
			wantNotes++
		case n > scaleBWMaxN: // graph4096 only: iterative sim rows, BW past its budget
			wantCells += 2
			wantNotes += 3
		case n > scaleLoopbackMaxBW:
			wantCells += 1 + 4
			wantNotes++
		default:
			wantCells += 2 + 4
		}
	}
	if len(su.Cells) != wantCells || len(su.Notes) != wantNotes {
		t.Fatalf("ladder has %d cells and %d notes, want %d and %d", len(su.Cells), len(su.Notes), wantCells, wantNotes)
	}
	for _, c := range su.Cells {
		s := c.Scenario
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		n, err := strconv.Atoi(s.Name[strings.LastIndexByte(s.Name, '-')+1:])
		if err != nil {
			t.Fatalf("%s: no order in the name", s.Name)
		}
		if n > 1024 && c.Runtime != repro.RuntimeSim {
			t.Errorf("%s: rungs above n=1024 must be simulator-only", s.Name)
		}
		if s.Protocol == "bw" {
			if n > scaleBWMaxN || (n > scaleLoopbackMaxBW && c.Runtime != repro.RuntimeSim) {
				t.Errorf("%s on %s: past the BW caps", s.Name, c.Runtime)
			}
			if s.F != repro.FZero || c.Expect.Outcome != Converges {
				t.Errorf("%s: BW ladder rows use the explicit zero fault bound and converge", s.Name)
			}
		} else if c.Expect.Outcome != DecidesOnly {
			t.Errorf("%s: iterative rows claim a decision only", s.Name)
		}
	}
	if got := len(scale(1, 32).Cells); got != 12 {
		t.Fatalf("maxN=32 ladder has %d cells, want 12", got)
	}
}

// TestScaleSmallRuns executes the bottom of the ladder end to end on both
// runtimes: BW must decide and converge on the cycle rows, every row must
// decide and carry its certification verdict, and nothing may be silently
// skipped.
func TestScaleSmallRuns(t *testing.T) {
	rep := mustPass(t, scale(1, 32))
	wantShape(t, rep, 12, 0) // 6 scenarios x {sim, loopback}
	for _, row := range rep.Rows {
		if row.Protocol == "bw" && (!row.Decided || !row.Converged) {
			t.Errorf("%s on %s: BW cycle row did not converge", row.Name, row.Runtime)
		}
		if row.Note != "3-reach=true" {
			t.Errorf("%s: certification note %q", row.Name, row.Note)
		}
		if !row.Decided {
			t.Errorf("%s on %s: run did not decide", row.Name, row.Runtime)
		}
	}
	if len(rep.Suite.Notes) != 0 {
		t.Errorf("skips at maxN=32: %v", rep.Suite.Notes)
	}
	if got := strings.Count(rep.Render(), "3-reach="); got != 12 {
		t.Errorf("render carries %d certification verdicts, want one per row", got)
	}
}

// TestScaleCertNoteAboveLimit: a cell past CertLimit's removal-set budget
// must carry the explicit skip note, not a fabricated verdict — and the
// rungs that were past the limit while it was 64 now carry a verdict.
func TestScaleCertNoteAboveLimit(t *testing.T) {
	note := certNote("torus:16:16", 2)
	if !strings.Contains(note, "skipped") {
		t.Fatalf("cert note for n=256, f=2 should record the skip, got %q", note)
	}
	for _, c := range []struct {
		spec string
		f    int
	}{{"cycle:32", 0}, {"cycle:128", 0}, {"torus:8:16", 1}, {"expander:128:3:1", 1}} {
		if got := certNote(c.spec, c.f); got != "3-reach=true" {
			t.Fatalf("%s f=%d should certify, got %q", c.spec, c.f, got)
		}
	}
}
