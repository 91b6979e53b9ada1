// Package cachesim implements a set-associative, write-back, write-allocate
// last-level cache simulator with LRU replacement.
//
// The Unimem runtime itself never sees the cache — it only observes
// post-cache main-memory traffic through sampled performance counters. The
// simulator's role in this repository is to *derive and validate* the
// post-cache access descriptors the workloads declare: tests drive the
// synthetic address traces of internal/trace through the simulator and
// check that the miss ratios assumed by the workload models (streaming
// sweeps missing once per line, pointer chases missing almost always,
// cache-resident vectors barely missing) actually emerge from a realistic
// cache.
//
// Together with internal/trace and internal/profiler it forms the
// test-only model-fidelity harness: nothing outside tests imports the
// three packages, and no simulated run executes them.
package cachesim

import "fmt"

// Access is one memory reference in a trace.
type Access struct {
	Addr  int64
	Write bool
}

// Config describes the simulated cache geometry.
type Config struct {
	SizeBytes int64 // total capacity
	LineBytes int64 // line size (typically 64)
	Ways      int   // associativity
}

// DefaultLLC returns a 20 MiB, 16-way, 64 B-line cache, a typical LLC for
// the Xeon E5-2630 class nodes of the paper's Platform A.
func DefaultLLC() Config {
	return Config{SizeBytes: 20 << 20, LineBytes: 64, Ways: 16}
}

// Stats reports the simulator's counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// MissRatio returns misses/accesses (0 when no accesses were made).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   int64
	valid bool
	dirty bool
	// lastUse is a per-set LRU timestamp.
	lastUse int64
}

// Cache is a set-associative LRU cache simulator. Not safe for concurrent
// use; each simulated rank owns its own instance.
type Cache struct {
	cfg   Config
	sets  [][]line
	nsets int64
	tick  int64
	stats Stats

	// onMiss, when non-nil, is invoked with the missing address; the
	// counter emulation uses it to attribute misses to objects.
	onMiss func(addr int64, write bool)
}

// New returns a cache with the given geometry. It panics on degenerate
// configurations (non-power-of-two handling is supported; zero sizes are
// not).
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cachesim: invalid config %+v", cfg))
	}
	nlines := cfg.SizeBytes / cfg.LineBytes
	nsets := nlines / int64(cfg.Ways)
	if nsets == 0 {
		nsets = 1
	}
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, nsets: nsets}
}

// OnMiss registers a callback invoked for every miss (after the line is
// filled). Pass nil to disable.
func (c *Cache) OnMiss(fn func(addr int64, write bool)) { c.onMiss = fn }

// Stats returns a copy of the current counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears the cache contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.stats = Stats{}
	c.tick = 0
}

// Touch performs one access and reports whether it missed.
func (c *Cache) Touch(a Access) bool {
	c.tick++
	c.stats.Accesses++
	lineAddr := a.Addr / c.cfg.LineBytes
	set := c.sets[lineAddr%c.nsets]
	tag := lineAddr / c.nsets

	// Hit?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			if a.Write {
				set[i].dirty = true
			}
			return false
		}
	}
	// Miss: pick victim (invalid first, else LRU).
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	c.stats.Evictions++
	if set[victim].dirty {
		c.stats.Writebacks++
	}
fill:
	set[victim] = line{tag: tag, valid: true, dirty: a.Write, lastUse: c.tick}
	if c.onMiss != nil {
		c.onMiss(a.Addr, a.Write)
	}
	return true
}

// Run drives a whole trace through the cache and returns the number of
// misses it produced.
func (c *Cache) Run(trace []Access) int64 {
	before := c.stats.Misses
	for _, a := range trace {
		c.Touch(a)
	}
	return c.stats.Misses - before
}
