//go:build !race

package scenario

// raceEnabled is false outside the race detector, so the allocation gate
// asserts exact equality.
const raceEnabled = false
