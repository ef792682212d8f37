package experiments

import "testing"

func TestRandomSweep(t *testing.T) {
	count := 8
	if testing.Short() {
		count = 3
	}
	// The one check is "count graphs found within the candidate budget".
	wantShape(t, mustPass(t, sweep(count, 1234)), count, 1)
}
