package experiments

import (
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
)

// TestScaleLadderShape pins the E14 case matrix: every ladder size carries
// the three family cells, BW rows use the explicit zero fault bound, and
// the large BW cells are simulator-only.
func TestScaleLadderShape(t *testing.T) {
	cases := ScaleCases(1, 0)
	// Sizes within the build dimension yield three family cells; n=2048 and
	// n=4096 collapse to one note-only case under the default build, and to
	// two runnable iterative cells plus a note-only BW case under graph4096
	// (BW is capped at scaleBWMaxN either way).
	want := 0
	for _, n := range ScaleSizes {
		switch {
		case n > graph.MaxNodes:
			want++
		default:
			want += 3
		}
	}
	if len(cases) != want {
		t.Fatalf("ladder has %d cells, want %d", len(cases), want)
	}
	for _, c := range cases {
		if len(c.Runtimes) == 0 {
			// Note-only case: must explain itself and carry no scenario.
			if c.SkipNote == "" {
				t.Errorf("n=%d %s: runtime-less case without a skip note", c.N, c.Family)
			}
			if c.Scenario.Name != "" {
				t.Errorf("n=%d %s: note-only case carries a scenario", c.N, c.Family)
			}
			continue
		}
		if err := c.Scenario.Validate(); err != nil {
			t.Errorf("%s: %v", c.Scenario.Name, err)
		}
		if c.N > 1024 && len(c.Runtimes) != 1 {
			t.Errorf("%s: rungs above n=1024 must be simulator-only", c.Scenario.Name)
		}
		if c.Scenario.Protocol == "bw" {
			if c.N > scaleBWMaxN {
				t.Errorf("%s: BW rows past n=%d must be note-only", c.Scenario.Name, scaleBWMaxN)
			}
			if c.Scenario.F != repro.FZero {
				t.Errorf("%s: BW ladder rows must use the explicit zero fault bound", c.Scenario.Name)
			}
			wantLoopback := c.N <= scaleLoopbackMaxBW
			hasLoopback := len(c.Runtimes) == 2
			if wantLoopback != hasLoopback {
				t.Errorf("%s: loopback presence = %v, want %v", c.Scenario.Name, hasLoopback, wantLoopback)
			}
			if hasSkip := c.SkipNote != ""; hasSkip == wantLoopback {
				t.Errorf("%s: skip note presence = %v, want %v (every absent runtime needs a reason)",
					c.Scenario.Name, hasSkip, !wantLoopback)
			}
		}
	}
	if got := len(ScaleCases(1, 32)); got != 6 {
		t.Fatalf("maxN=32 ladder has %d cells, want 6", got)
	}
}

// TestScaleSmallRuns executes the bottom of the ladder end to end on both
// runtimes: BW must decide and converge on the cycle rows, the report must
// carry certification notes, and nothing may be silently skipped.
func TestScaleSmallRuns(t *testing.T) {
	rep, err := RunScaleExec(context.Background(), 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 { // 6 cells x {sim, loopback}
		t.Fatalf("rows = %d, want 12", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Protocol == "bw" && (!row.Decided || !row.Converged) {
			t.Errorf("%s on %s: BW cycle row did not converge", row.Name, row.Runtime)
		}
		if row.CertNote == "" {
			t.Errorf("%s: missing certification note", row.Name)
		}
		if !row.Decided {
			t.Errorf("%s on %s: run did not decide", row.Name, row.Runtime)
		}
	}
	if !strings.Contains(rep.Render(), "3-reach") {
		t.Error("render misses the certification column")
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
