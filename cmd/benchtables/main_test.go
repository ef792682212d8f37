package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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
		if want := simSteps[i/2]; runtime == "sim" && (cell.Steps != want || cell.Sends != want) {
			t.Errorf("%s on sim: steps, sends = %d, %d, want %d", cell.Name, cell.Steps, cell.Sends, want)
		}
	}
}

// TestEngineWorkersFlagIsGone: the engine knobs went with the engines, so
// the flag is an unknown one. Flag errors exit the process, hence the
// re-run of this test binary as benchtables (the arguments after "--").
func TestEngineWorkersFlagIsGone(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		run(context.Background(), args, io.Discard)
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestEngineWorkersFlagIsGone$", "--", "-engine-workers", "2", "scale").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -engine-workers") {
		t.Fatalf("benchtables -engine-workers 2: err %v, output:\n%s", err, out)
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
		_, cells, err := e.run(ctx, 1, 1)
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
