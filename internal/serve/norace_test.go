//go:build !race

package serve

// raceEnabled is false outside the race detector, so the gates assert
// their timing bounds.
const raceEnabled = false
