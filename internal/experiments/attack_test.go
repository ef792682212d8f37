package experiments

import (
	"testing"

	"repro"
)

func TestAttackMatrixAllPass(t *testing.T) {
	// Every registered adversary appears for every target protocol, plus
	// the composed and link-fault cells; each target's link-fault cell
	// must report interventions.
	perTarget := len(repro.FaultKinds()) + 2
	wantShape(t, mustPass(t, attackMatrix(777)), 3*perTarget, 3)
}
