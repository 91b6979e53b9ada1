//go:build !race

package exp

// raceEnabled is false outside the race detector, so the gates assert
// their timing bounds.
const raceEnabled = false
