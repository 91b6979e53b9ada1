//go:build race

package scenario

// raceEnabled relaxes the allocation gate: the race detector makes
// sync.Pool drop items at random, so pooled encoder state is reallocated
// now and then and allocation counts are not exact.
const raceEnabled = true
