package experiments

import (
	"testing"

	"repro"
)

func TestAttackMatrixAllPass(t *testing.T) {
	// Every adversary a target protocol accepts appears for it, plus the
	// composed and link-fault cells, and every kind it refuses is a note;
	// each target's link-fault cell must report interventions.
	rows, notes := 0, 0
	for _, tgt := range attackTargets {
		rows += len(repro.FaultKindsFor(tgt.protocol)) + 2
		notes += len(repro.FaultKinds()) - len(repro.FaultKindsFor(tgt.protocol))
	}
	rep := mustPass(t, attackMatrix(777))
	wantShape(t, rep, rows, 3)
	if len(rep.Suite.Notes) != notes {
		t.Errorf("%d notes %v, want one per refused kind: %d", len(rep.Suite.Notes), rep.Suite.Notes, notes)
	}
}
