//go:build !unix

package simprog

// processCPUNS is unavailable off unix, so the engine gate cannot
// compute a per-core speedup there.
func processCPUNS() int64 { return 0 }
