package experiments

// BenchRun is one row of a benchtables -json report: a per-experiment
// timing (Name and Ms only) or one executed cell of the E14/E15 tables with
// its wall time and the run's acceptance facts.
type BenchRun struct {
	Name      string  `json:"name"`
	Runtime   string  `json:"runtime,omitempty"`
	Ms        float64 `json:"ms"`
	Steps     int     `json:"steps,omitempty"`
	Sends     int     `json:"sends,omitempty"`
	Decided   bool    `json:"decided,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Valid     bool    `json:"valid,omitempty"`
	// Table columns of the E14 and E15 cells.
	Protocol string `json:"protocol,omitempty"`
	Family   string `json:"family,omitempty"`
	N        int    `json:"n,omitempty"`
	F        int    `json:"f,omitempty"`
	// Exact-tier columns (E15): the adversary cell the run executed under
	// and, for vector-decision protocols, the agreed subset size.
	Adversary string `json:"adversary,omitempty"`
	Subset    int    `json:"subset,omitempty"`
}

// BenchReport is what benchtables -json writes: the per-cell rows of a sole
// E14 or E15 selection under "runs", or per-experiment timings under
// "experiments" — never both. It is a report format for those tables, not a
// baseline for performance claims; those are bench/'s job (BENCHMARK.json).
type BenchReport struct {
	Suite string `json:"suite,omitempty"`
	// Workers is benchtables' process-wide -workers setting.
	Workers     int        `json:"workers,omitempty"`
	Seed        int64      `json:"seed"`
	Runs        []BenchRun `json:"runs,omitempty"`
	Experiments []BenchRun `json:"experiments,omitempty"`
	Skipped     []string   `json:"skipped,omitempty"`
}
