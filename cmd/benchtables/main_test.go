package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// runJSON runs benchtables with args plus -json into a temp file and
// decodes what it wrote; unknown fields fail, so the report format cannot
// drift from experiments.BenchReport unnoticed.
func runJSON(t *testing.T, args ...string) experiments.BenchReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run(context.Background(), append([]string{"-json", path}, args...), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep experiments.BenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScaleJSONCells pins the E14 ladder's per-cell report: a sole scale
// selection writes runs, in ladder order, with the simulator cells' step and
// send counts as recorded at seed 1.
func TestScaleJSONCells(t *testing.T) {
	rep := runJSON(t, "-maxn", "32", "scale")
	if rep.Suite != "scale" || rep.Seed != 1 || len(rep.Experiments) != 0 {
		t.Fatalf("report header = %+v, want a runs-shaped scale report at seed 1", rep)
	}
	names := []string{
		"scale-bw-cycle-8", "scale-iter-torus-8", "scale-iter-expander-8",
		"scale-bw-cycle-32", "scale-iter-torus-32", "scale-iter-expander-32",
	}
	simSteps := []int{168, 96, 96, 2976, 512, 384}
	if len(rep.Runs) != 2*len(names) {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), 2*len(names))
	}
	for i, cell := range rep.Runs {
		name, runtime := names[i/2], []string{"sim", "loopback"}[i%2]
		if cell.Name != name || cell.Runtime != runtime {
			t.Errorf("cell %d = (%s, %s), want (%s, %s)", i, cell.Name, cell.Runtime, name, runtime)
		}
		if !cell.Decided {
			t.Errorf("%s on %s: not decided", cell.Name, cell.Runtime)
		}
		if cell.Engine != "" || cell.Policy != "" {
			t.Errorf("%s on %s: default run stamped engine %q policy %q", cell.Name, cell.Runtime, cell.Engine, cell.Policy)
		}
		if want := simSteps[i/2]; runtime == "sim" && (cell.Steps != want || cell.Sends != want) {
			t.Errorf("%s on sim: steps, sends = %d, %d, want %d", cell.Name, cell.Steps, cell.Sends, want)
		}
	}
}

// TestScaleParallelRunsFifo: under the parallel engine the simulator cells,
// and only those, run and are stamped with the fifo delivery policy, and the
// report says so.
func TestScaleParallelRunsFifo(t *testing.T) {
	rep := runJSON(t, "-maxn", "8", "-engine", "parallel", "-engine-workers", "2", "scale")
	if len(rep.Runs) == 0 || len(rep.Notes) == 0 {
		t.Fatalf("report = %+v, want cells and a policy note", rep)
	}
	for _, cell := range rep.Runs {
		want := experiments.BenchRun{}
		if cell.Runtime == "sim" {
			want = experiments.BenchRun{Engine: "parallel", Workers: 2, Policy: "fifo"}
		}
		if cell.Engine != want.Engine || cell.Workers != want.Workers || cell.Policy != want.Policy {
			t.Errorf("%s on %s: engine %q workers %d policy %q, want %q %d %q", cell.Name, cell.Runtime,
				cell.Engine, cell.Workers, cell.Policy, want.Engine, want.Workers, want.Policy)
		}
	}
}

// TestMultiSelectionJSONTimings: more than one experiment records
// per-experiment timings, never cells.
func TestMultiSelectionJSONTimings(t *testing.T) {
	rep := runJSON(t, "-maxn", "8", "kreach", "scale")
	if len(rep.Runs) != 0 || rep.Suite != "" {
		t.Fatalf("multi-experiment report carries cells: %+v", rep)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].Name != "kreach" || rep.Experiments[1].Name != "scale" {
		t.Fatalf("experiments = %+v, want kreach then scale", rep.Experiments)
	}
}

// TestScaleStopsOnCancelledContext: the ladder gets the caller's context, so
// an interrupt ends it between cells; cancelled up front, no cell runs.
func TestScaleStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range catalog(32) {
		if e.name != "scale" {
			continue
		}
		_, cells, err := e.run(ctx, 1)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(cells.Runs) != 0 {
			t.Fatalf("%d cells ran under a cancelled context", len(cells.Runs))
		}
		return
	}
	t.Fatal("no scale experiment in the catalog")
}
