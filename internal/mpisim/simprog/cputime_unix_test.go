//go:build unix

package simprog

import "syscall"

// processCPUNS returns the process's consumed CPU time (user + system)
// in nanoseconds: the denominator of the per-core speedup, which is what
// makes the single-threaded event core and the many-goroutine oracle
// engine comparable on a multicore machine.
func processCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
