package bw

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
)

// Proto is the context of one BW execution shared by its node machines:
// the configuration and the state that belongs to the run. Everything that
// depends on (G, F) alone — fault sets, source components, clauses, path
// tables, each node's thread contexts — is the plan (plan.go), shared by
// every Proto on a graph of the same content with the same F and budget.
// Its exported fields are immutable after construction.
type Proto struct {
	G   *graph.Graph
	F   int
	K   float64 // a-priori bound: inputs lie in [0, K]
	Eps float64
	// Rounds is the paper's termination rule: nonfaulty nodes output after
	// the first round r > log2(K/eps), so Rounds = floor(log2(K/eps)) + 1.
	Rounds int
	// PathBudget caps the number of redundant paths any single node may
	// have to track; configurations beyond it are rejected at setup (see
	// DESIGN.md fidelity note 7).
	PathBudget int

	// plan is looked up, or built, on the first NewMachine.
	planOnce sync.Once
	plan     *plan

	// floods caches the content digest and per-origin values of each
	// distinct COMPLETE flood of the current run, keyed by its content;
	// aliases maps the identity of a flood's immutable, relay-shared entry
	// slice (floodKey) to the same summary, so a copy sharing the slice
	// skips the hash (see Machine.floodInfo). The cache lives on the shared
	// Proto rather than per machine: hashing a flood's content costs
	// O(total key bytes), and with per-machine caches every receiver paid
	// it again — an O(n^4)-byte bill that dominated large-graph profiles.
	// sync.Map because cluster runtimes invoke machines from concurrent
	// node loops; the deterministic simulator is single-threaded and pays
	// only the map overhead.
	floods  sync.Map // contentKey -> *floodInfo
	aliases sync.Map // floodKey -> *floodInfo
}

// DefaultPathBudget bounds per-node redundant path enumeration.
const DefaultPathBudget = 250_000

// RoundsFor returns the paper's round bound: the smallest R such that
// K / 2^R < eps (zero when K < eps — the trivial case).
func RoundsFor(k, eps float64) int {
	if eps <= 0 {
		panic("bw: eps must be positive")
	}
	r := 0
	for spread := k; spread >= eps; spread /= 2 {
		r++
		if r > 64 {
			break
		}
	}
	return r
}

// NewProto validates the configuration. The plan waits for the first
// NewMachine: a Proto that is only validated, or only asked for its round
// bound, should not pay for finding it. It does not verify 3-reach
// (checking is the condition package's job and some experiments
// deliberately run BW on graphs that violate it); callers wanting the
// guarantee should check first.
func NewProto(g *graph.Graph, f int, k, eps float64, pathBudget int) (*Proto, error) {
	if f < 0 {
		return nil, fmt.Errorf("bw: negative fault bound %d", f)
	}
	if k <= 0 || eps <= 0 || math.IsNaN(k) || math.IsNaN(eps) {
		return nil, fmt.Errorf("bw: invalid range/eps %v/%v", k, eps)
	}
	if pathBudget <= 0 {
		pathBudget = DefaultPathBudget
	}
	return &Proto{
		G:          g,
		F:          f,
		K:          k,
		Eps:        eps,
		Rounds:     RoundsFor(k, eps),
		PathBudget: pathBudget,
	}, nil
}
