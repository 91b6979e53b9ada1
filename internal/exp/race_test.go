//go:build race

package exp

// raceEnabled compiles out the gates' wall- and CPU-time assertions:
// the race detector slows code unevenly, so timings mean nothing there.
const raceEnabled = true
