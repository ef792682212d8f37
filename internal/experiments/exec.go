package experiments

// Exec selects how a sweep's independent runs are fanned out.
type Exec struct {
	// Workers bounds the sweep fan-out: < 1 means one worker per CPU,
	// 1 runs sequentially. Single executions ignore it.
	Workers int
}

// DefaultExec is the process-wide execution configuration used by the
// drivers that take no explicit Exec. Commands may set it once at startup
// before running any driver; it must not be mutated afterwards (sweep
// workers read it concurrently).
var DefaultExec Exec
