//go:build race

package simprog

// raceEnabled compiles out the gates' wall- and CPU-time assertions:
// the race detector slows code unevenly, so timings mean nothing there.
const raceEnabled = true
