//go:build !race

package simprog

// raceEnabled is false outside the race detector, so the gates assert
// their timing bounds.
const raceEnabled = false
