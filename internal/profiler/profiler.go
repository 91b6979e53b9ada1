// Package profiler provides the trace-driven validation path for the
// repository's analytic traffic models: it replays a workload phase's
// declared references as synthetic address traces through the
// set-associative LLC simulator and compares the misses the cache actually
// produces against the post-cache access counts the workload declares.
//
// Those post-cache counts are what the paper's Eq. 1 prices (number of
// main-memory accesses x cache line size over bandwidth) and what the
// sampled counters of §3.1.1 estimate at runtime, so their fidelity per
// access pattern (§2.2: streaming, stencil, random, pointer-chasing)
// decides whether every downstream model sees realistic inputs.
//
// The Unimem runtime itself consumes the analytic counts (through the
// counter emulation); this package is how we keep those counts honest —
// the workload generators' cache-attenuation model (workloads.atten) was
// fitted against, and is regression-tested by, these replays.
//
// Together with internal/trace and internal/cachesim it forms the
// test-only model-fidelity harness: nothing outside tests imports the
// three packages, and no simulated run executes them.
package profiler

import (
	"fmt"
	"sort"

	"unimem/internal/cachesim"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/trace"
	"unimem/internal/workloads"
	"unimem/internal/xrand"
)

// ObjectCheck compares analytic and trace-driven post-cache traffic for
// one object in one phase.
type ObjectCheck struct {
	Phase  string
	Object string
	// DeclaredAccesses is the workload's analytic post-cache count.
	DeclaredAccesses int64
	// MeasuredMisses is what the LLC simulator produced for the replayed
	// trace.
	MeasuredMisses int64
	// NominalRefs is the pre-cache reference count the trace replayed.
	NominalRefs int64
	Pattern     machine.Pattern
}

// Ratio returns measured/declared (1.0 = perfect agreement).
func (c ObjectCheck) Ratio() float64 {
	if c.DeclaredAccesses == 0 {
		return 0
	}
	return float64(c.MeasuredMisses) / float64(c.DeclaredAccesses)
}

// Report is the outcome of validating one workload.
type Report struct {
	Workload string
	Checks   []ObjectCheck
}

// Worst returns the check with the ratio farthest from 1 among objects
// with at least minDeclared declared accesses (tiny counts are dominated
// by warmup noise).
func (r *Report) Worst(minDeclared int64) (ObjectCheck, float64) {
	var worst ObjectCheck
	var dev float64 = -1
	for _, c := range r.Checks {
		if c.DeclaredAccesses < minDeclared {
			continue
		}
		d := c.Ratio() - 1
		if d < 0 {
			d = -d
		}
		if d > dev {
			dev = d
			worst = c
		}
	}
	return worst, dev
}

// Options tunes the replay.
type Options struct {
	// SampleRefs caps the pre-cache references replayed per object per
	// phase; the miss count scales back up linearly. Default 1<<20.
	SampleRefs int64
	// Cache is the simulated LLC geometry (default cachesim.DefaultLLC).
	Cache cachesim.Config
	Seed  uint64
}

func (o *Options) fill() {
	if o.SampleRefs == 0 {
		o.SampleRefs = 1 << 20
	}
	if o.Cache == (cachesim.Config{}) {
		o.Cache = cachesim.DefaultLLC()
	}
	if o.Seed == 0 {
		o.Seed = 0x7ACE
	}
}

// refsPerMiss is how many trace references one declared post-cache access
// corresponds to at full attenuation: the analytic model counts streaming
// and stencil traffic in cache lines (one miss per line), but their traces
// walk in 8-byte words — 8 references per line; irregular patterns access
// one line per reference.
func refsPerMiss(p machine.Pattern) int64 {
	if p == machine.Stream || p == machine.Stencil {
		return machine.CacheLineBytes / 8
	}
	return 1
}

// nominalRefs reconstructs the pre-cache reference count behind a declared
// post-cache access count: the workload generators divide by the
// attenuation factor derived from the object's size and count line-grain
// misses, so inverting both recovers the reference stream length.
func nominalRefs(declared int64, size int64, llc int64, p machine.Pattern) int64 {
	att := float64(size-llc) / float64(size)
	if att < 0.05 {
		att = 0.05
	}
	return int64(float64(declared*refsPerMiss(p)) / att)
}

// Validate replays every (phase, object) reference of iteration 0 on one
// rank of the workload and reports analytic-vs-measured traffic.
func Validate(w *workloads.Workload, opts Options) (*Report, error) {
	opts.fill()
	mach := machine.PlatformA()
	heap := memsys.NewHeap(mach, memsys.NewNodeTiers(mach), memsys.HeapOptions{})
	for _, os := range w.Objects {
		if _, err := heap.Alloc(os.Name, os.Size, memsys.AllocOptions{InitialTier: mach.SlowestIdx()}); err != nil {
			return nil, fmt.Errorf("profiler: alloc %s: %w", os.Name, err)
		}
	}
	rep := &Report{Workload: w.Name}
	rng := xrand.New(opts.Seed)
	llc := opts.Cache.SizeBytes
	for _, ph := range w.Phases {
		refs := ph.Refs(0)
		// Deterministic object order.
		sort.Slice(refs, func(a, b int) bool { return refs[a].Object < refs[b].Object })
		for _, r := range refs {
			obj := heap.Lookup(r.Object)
			nominal := nominalRefs(r.Accesses, obj.Size, llc, r.Pattern)
			replay := nominal
			if replay > opts.SampleRefs {
				replay = opts.SampleRefs
			}
			if replay < 1 {
				continue
			}
			c := cachesim.New(opts.Cache)
			pass := func() int64 {
				var misses int64
				for _, chunk := range obj.Chunks {
					share := replay * chunk.Size / obj.Size
					if share < 1 {
						continue
					}
					tr := trace.Gen(chunk, r.Pattern, int(share), 1-r.ReadFrac, rng.Split(uint64(chunk.SimAddr)))
					misses += c.Run(tr)
				}
				return misses
			}
			// Objects much larger than the cache thrash: a cold pass IS
			// the steady state (an LRU stream of >2x cache never re-hits).
			// Cache-resident objects are the opposite regime: warm once,
			// then measure the reuse behaviour steady iterations see.
			misses := pass()
			if obj.Size <= 2*llc {
				misses = pass()
			}
			scaled := int64(float64(misses) * float64(nominal) / float64(replay))
			rep.Checks = append(rep.Checks, ObjectCheck{
				Phase:            ph.Name,
				Object:           r.Object,
				DeclaredAccesses: r.Accesses,
				MeasuredMisses:   scaled,
				NominalRefs:      nominal,
				Pattern:          r.Pattern,
			})
		}
	}
	return rep, nil
}
