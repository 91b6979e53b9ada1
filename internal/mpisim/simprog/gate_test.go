package simprog

import (
	"runtime"
	"slices"
	"testing"

	"unimem/internal/machine"
)

// This file is the event core's performance gate: micro and macro MPI
// benchmarks run on both engines, compared in machine-independent terms.
// The per-core speedup divides each engine's process CPU time into the
// same world count, so it cancels the machine out and stays honest
// across engines (the oracle spreads one world over many goroutines,
// the event core uses one). Allocations per world are deterministic
// counts, the cheapest signal of an accidental per-rank or per-message
// allocation. The macro cells are comm skeletons of NPB CG/SP/MG: the
// message pattern, sizes and compute skew of each kernel's iteration
// loop, without the cost-model stack above it.

// gateTolerance is the relative band on the committed baselines: a
// speedup may fall to (1 - gateTolerance) of its baseline, allocations
// may grow to (1 + gateTolerance) of theirs.
const gateTolerance = 0.5

// speedupPairs is how many event/oracle pairs each speedup takes the
// median of.
const speedupPairs = 3

// benchSpec is one benchmark cell.
type benchSpec struct {
	name   string
	ranks  int
	worlds int // full-mode world count; the gate runs worlds/4 (min 1)
	body   func(Comm)
}

// benchmarks returns the suite: micro ping-pong, allreduce at 64/1k/10k
// ranks (the 10k cell is the scale gate) and the CG/SP/MG skeletons.
func benchmarks() []benchSpec {
	return []benchSpec{
		{name: "pingpong", ranks: 2, worlds: 200, body: pingPongBody(1000)},
		{name: "allreduce@64", ranks: 64, worlds: 40, body: allreduceBody(50)},
		{name: "allreduce@1k", ranks: 1024, worlds: 8, body: allreduceBody(20)},
		{name: "allreduce@10k", ranks: 10_000, worlds: 2, body: allreduceBody(5)},
		{name: "CG", ranks: 16, worlds: 60, body: cgBody(60)},
		{name: "SP", ranks: 16, worlds: 60, body: spBody(40)},
		{name: "MG", ranks: 16, worlds: 60, body: mgBody(40)},
	}
}

// baselines holds each cell's committed figures, measured in full mode
// at GOMAXPROCS=1 when the event core replaced the goroutine engine.
// speedup is the event-vs-oracle per-core speedup; zero means the oracle
// does not run the cell, because its NewWorld allocates a ranks²×1024-slot
// mailbox matrix (~48 KB per pair) and beyond a few hundred ranks the
// allocation alone exceeds memory. allocs is the event core's
// allocations per world.
var baselines = map[string]struct{ speedup, allocs float64 }{
	"pingpong":      {speedup: 1.19, allocs: 20.03},
	"allreduce@64":  {speedup: 40.27, allocs: 276.775},
	"allreduce@1k":  {allocs: 4732.5},
	"allreduce@10k": {allocs: 54486},
	"CG":            {speedup: 4.79, allocs: 108},
	"SP":            {speedup: 10.35, allocs: 2756},
	"MG":            {speedup: 10.22, allocs: 157},
}

// TestEngineGate runs every benchmark cell on the event engine, and on
// the oracle where the cell has a speedup baseline. Each event cell's
// allocations per world must stay within the ceiling, each oracle-backed
// cell's per-core speedup above the floor, and every world must
// complete: a 10k-rank world that cannot finish fails the gate. Under
// the race detector the speedup is not asserted, so the oracle sits out.
func TestEngineGate(t *testing.T) {
	cells := benchmarks()
	seen := map[string]bool{}
	for _, b := range cells {
		seen[b.name] = true
		if _, ok := baselines[b.name]; !ok {
			t.Errorf("cell %s has no baseline", b.name)
		}
	}
	for name := range baselines {
		if !seen[name] {
			t.Errorf("baseline %s names no cell", name)
		}
	}
	// One P, as when the baselines were recorded: with more, the oracle's
	// CPU time also counts the scheduler spinning idle Ps in search of
	// its goroutines' handoffs, which varies with whatever else the
	// machine runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := machine.PlatformA()
	for _, b := range cells {
		base, ok := baselines[b.name]
		if !ok {
			continue
		}
		worlds := max(b.worlds/4, 1)
		ev := measure(b, Event, m, worlds)
		t.Logf("%-14s event  %5d ranks: %d worlds, %.1f ms CPU, %.1f allocs/world",
			b.name, b.ranks, worlds, float64(ev.cpuNS)/1e6, ev.allocsPerWorld)
		if ceil := base.allocs * (1 + gateTolerance); ev.allocsPerWorld > ceil {
			t.Errorf("%s: %.1f allocs/world above %.1f (baseline %.1f + %.0f%%)",
				b.name, ev.allocsPerWorld, ceil, base.allocs, gateTolerance*100)
		}
		if base.speedup == 0 || raceEnabled {
			continue
		}
		// The speedup is the median over interleaved event/oracle pairs,
		// so one sample disturbed by the rest of the machine cannot
		// decide it; a real regression slows every pair.
		ratios := make([]float64, 0, speedupPairs)
		for i := 0; i < speedupPairs; i++ {
			if i > 0 {
				ev = measure(b, Event, m, worlds)
			}
			or := measure(b, Oracle, m, worlds)
			if ev.cpuNS <= 0 || or.cpuNS <= 0 {
				t.Fatalf("%s: process CPU time unavailable; no per-core speedup", b.name)
			}
			ratios = append(ratios, float64(or.cpuNS)/float64(ev.cpuNS))
		}
		slices.Sort(ratios)
		speedup := ratios[len(ratios)/2]
		t.Logf("%-14s event-vs-oracle per-core speedup %.2fx, median of %.2f (baseline %.2fx)",
			b.name, speedup, ratios, base.speedup)
		if floor := base.speedup * (1 - gateTolerance); speedup < floor {
			t.Errorf("%s: event-vs-oracle per-core speedup %.2fx below %.2fx (baseline %.2fx - %.0f%%)",
				b.name, speedup, floor, base.speedup, gateTolerance*100)
		}
	}
}

// measurement is one (cell, engine) run's process CPU time and heap
// allocations per world.
type measurement struct {
	cpuNS          int64
	allocsPerWorld float64
}

// measure runs worlds sequential worlds of b on e.
func measure(b benchSpec, e Engine, m *machine.Machine, worlds int) (r measurement) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPUNS()
	for i := 0; i < worlds; i++ {
		e.Run(b.ranks, m, b.body)
	}
	r.cpuNS = processCPUNS() - cpu0
	runtime.ReadMemStats(&after)
	r.allocsPerWorld = float64(after.Mallocs-before.Mallocs) / float64(worlds)
	return r
}

// pingPongBody bounces a 4 KB message between two ranks.
func pingPongBody(iters int) func(Comm) {
	return func(c Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.Send(peer, 1, 4096, nil)
				c.Recv(peer, 2)
			} else {
				c.Recv(peer, 1)
				c.Send(peer, 2, 4096, nil)
			}
		}
	}
}

// allreduceBody is a skewed compute + scalar allreduce loop: the
// collective-rendezvous stress at any world size.
func allreduceBody(iters int) func(Comm) {
	return func(c Comm) {
		for i := 0; i < iters; i++ {
			c.Advance(int64(1_000 * (c.Rank()%7 + 1)))
			c.Allreduce(8)
		}
	}
}

// cgBody is CG's iteration loop shape: a transpose exchange with a
// power-of-two partner, then the two dot-product allreduces.
func cgBody(iters int) func(Comm) {
	return func(c Comm) {
		p := c.Size()
		partner := c.Rank() ^ (p / 2)
		for i := 0; i < iters; i++ {
			c.Advance(40_000)
			c.SendRecv(partner, partner, 31, 14_000, nil)
			c.Advance(20_000)
			c.Allreduce(8)
			c.Allreduce(8)
		}
	}
}

// spBody is SP's ADI sweeps: directional face exchanges per iteration,
// non-blocking both ways.
func spBody(iters int) func(Comm) {
	return func(c Comm) {
		p := c.Size()
		for i := 0; i < iters; i++ {
			for _, stride := range []int{1, 4} {
				right := (c.Rank() + stride) % p
				left := (c.Rank() - stride + p) % p
				out := c.Isend(right, 41, 60_000, nil)
				in := c.Irecv(left, 41)
				c.Advance(80_000)
				out.Wait()
				in.Wait()
			}
			c.Advance(120_000)
		}
	}
}

// mgBody is MG's V-cycle: halo exchanges shrinking by level, and a
// residual allreduce at the coarsest grid.
func mgBody(iters int) func(Comm) {
	return func(c Comm) {
		p := c.Size()
		for i := 0; i < iters; i++ {
			bytes := int64(32_768)
			for level := 0; level < 4; level++ {
				right := (c.Rank() + 1) % p
				left := (c.Rank() - 1 + p) % p
				c.SendRecv(right, left, 50+level, bytes, nil)
				c.Advance(30_000 >> level)
				bytes /= 4
			}
			c.Allreduce(8)
		}
	}
}
