package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// BenchRun is one measured cell of a BENCH_*.json report: a (scenario,
// runtime, engine-configuration) triple with its best wall time and the
// run's acceptance facts. Fields beyond Name and Ms are optional — the
// benchtables experiment timings carry only the pair, the benchruntimes
// suites fill the rest.
type BenchRun struct {
	Name    string `json:"name"`
	Runtime string `json:"runtime,omitempty"`
	// Engine and Workers record the sim engine configuration when it is not
	// the inline default (the BENCH_3 workers column).
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Policy records a delivery-policy override ("" = the scenario's own).
	Policy    string  `json:"policy,omitempty"`
	Ms        float64 `json:"ms"` // best-of-reps wall time
	Steps     int     `json:"steps,omitempty"`
	Sends     int     `json:"sends,omitempty"`
	Decided   bool    `json:"decided,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Valid     bool    `json:"valid,omitempty"`
	// Scale-suite columns (omitted by the default suite).
	Protocol string `json:"protocol,omitempty"`
	Family   string `json:"family,omitempty"`
	N        int    `json:"n,omitempty"`
	F        int    `json:"f,omitempty"`
	// Exact-tier columns (BENCH_4): the adversary cell the run executed
	// under and, for vector-decision protocols, the agreed subset size.
	Adversary string `json:"adversary,omitempty"`
	Subset    int    `json:"subset,omitempty"`
	// Service-tier columns (BENCH_5): sustained throughput over pipelined
	// instances — decided instance count, decisions/sec at the submitting
	// vertex, and the fleet's bounded-queue accounting (backpressure waits
	// and shed frames) over the measurement window.
	Decisions int64   `json:"decisions,omitempty"`
	PerSec    float64 `json:"perSec,omitempty"`
	Waits     int64   `json:"waits,omitempty"`
	Shed      int64   `json:"shed,omitempty"`
	// Frame-path columns (BENCH_6): per-frame cost on the live tier's hot
	// path. On service cells AllocsPerFrame is the whole process's heap
	// allocations over the window divided by the frames the fleet enqueued
	// — an upper bound that includes client-plane and machine work, honest
	// about everything the service does per frame. NsPerFrame is read, not
	// written: the committed BENCH_6/BENCH_7 "micro" cells carry it (their
	// generator is gone; bench/ times the live primitives instead).
	NsPerFrame     float64 `json:"nsPerFrame,omitempty"`
	AllocsPerFrame float64 `json:"allocsPerFrame,omitempty"`
}

// Key identifies the cell for cross-report comparison: the scenario and
// runtime plus the engine configuration. Two reports' cells with equal keys
// measured the same work.
func (r BenchRun) Key() string {
	return fmt.Sprintf("%s|%s|%s|w%d", r.Name, r.Runtime, r.Engine, r.Workers)
}

// BaseKey is Key without the engine configuration — the match used to
// compare an engine-swept cell against a plain baseline report.
func (r BenchRun) BaseKey() string {
	return fmt.Sprintf("%s|%s", r.Name, r.Runtime)
}

// BenchReport is the shared schema of every BENCH_*.json file in the
// repository root. One decoder covers all generations: benchtables writes
// per-experiment timings under "experiments" (BENCH_0), the benchruntimes
// suites write full cells under "runs" (BENCH_1, BENCH_2, BENCH_3); Cells
// returns whichever is populated.
type BenchReport struct {
	Suite string `json:"suite,omitempty"`
	// Engine/Workers at this level are benchtables' process-wide settings;
	// per-cell engine configuration lives on the runs.
	Engine      string     `json:"engine,omitempty"`
	Workers     int        `json:"workers,omitempty"`
	Seed        int64      `json:"seed"`
	Reps        int        `json:"reps,omitempty"`
	Runs        []BenchRun `json:"runs,omitempty"`
	Experiments []BenchRun `json:"experiments,omitempty"`
	Skipped     []string   `json:"skipped,omitempty"`
	// Notes carries measurement caveats (hardware limits, policy
	// overrides) that belong with the numbers rather than in prose.
	Notes []string `json:"notes,omitempty"`
}

// Cells returns the report's measured cells in file order, whichever field
// they were recorded under.
func (r *BenchReport) Cells() []BenchRun {
	if len(r.Runs) > 0 {
		return r.Runs
	}
	return r.Experiments
}

// LoadBench reads and decodes one BENCH_*.json file. Unknown fields are
// rejected so a schema drift fails loudly here instead of comparing zeroes.
func LoadBench(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	rep := &BenchReport{}
	if err := dec.Decode(rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) > 0 && len(rep.Experiments) > 0 {
		return nil, fmt.Errorf("%s: both runs and experiments populated", path)
	}
	return rep, nil
}
