//go:build !race

package wire

// RaceEnabled: see poison_race.go.
const RaceEnabled = false

// poisonReleased is the race build's use-after-release trap; releasing a
// buffer costs nothing extra in a normal build.
func poisonReleased([]byte) {}
