// Package trace generates synthetic address traces for the access patterns
// the paper characterizes (§2.2): streaming, stencil, random, and
// pointer-chasing — the same taxonomy whose memory-level parallelism makes
// an object bandwidth-sensitive or latency-sensitive (machine.Pattern.MLP,
// feeding the Eq. 2/3 benefit estimates). Traces address the stable
// simulated address range of a memsys chunk.
//
// Together with internal/profiler and internal/cachesim it forms the
// test-only model-fidelity harness: its traces are consumed by
// profiler.Validate and the cachesim validation tests. Nothing outside
// tests imports the three packages; the counter emulation that simulated
// runs use prices the workloads' declared access counts directly.
//
// Generation is deterministic given the caller's xrand stream, like every
// other stochastic input in the repository.
package trace

import (
	"unimem/internal/cachesim"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/xrand"
)

// Gen produces n accesses of the given pattern over the chunk's simulated
// address range. writeFrac of the accesses are writes. The generator is
// deterministic given rng.
func Gen(c *memsys.Chunk, p machine.Pattern, n int, writeFrac float64, rng *xrand.RNG) []cachesim.Access {
	out := make([]cachesim.Access, 0, n)
	base, size := c.SimAddr, c.Size
	if size <= 0 || n <= 0 {
		return out
	}
	isWrite := func() bool { return rng.Float64() < writeFrac }
	switch p {
	case machine.Stream:
		// Sequential 8-byte sweeps, wrapping around the extent.
		stride := int64(8)
		addr := base
		for i := 0; i < n; i++ {
			out = append(out, cachesim.Access{Addr: addr, Write: isWrite()})
			addr += stride
			if addr >= base+size {
				addr = base
			}
		}
	case machine.Stencil:
		// 5-point-style neighbourhood: a moving centre plus +/- one "row".
		row := size / 64
		if row < 64 {
			row = 64
		}
		centre := base
		for i := 0; i < n; i += 3 {
			for _, d := range []int64{0, -row, +row} {
				a := centre + d
				if a < base {
					a += size
				}
				if a >= base+size {
					a -= size
				}
				out = append(out, cachesim.Access{Addr: a, Write: isWrite()})
				if len(out) == n {
					return out
				}
			}
			centre += 8
			if centre >= base+size {
				centre = base
			}
		}
	case machine.Random:
		for i := 0; i < n; i++ {
			out = append(out, cachesim.Access{Addr: base + rng.Int63n(size), Write: isWrite()})
		}
	case machine.PointerChase:
		// Dependent chain: a full-period coprime-stride walk over the
		// chunk's cache lines, so the chain visits every line once before
		// repeating and consecutive accesses land on distant lines — the
		// access structure of a pointer-chasing ring built from a random
		// permutation.
		nlines := size / 64
		if nlines < 1 {
			nlines = 1
		}
		step := int64(float64(nlines)*0.6180339887) | 1
		if step <= 0 {
			step = 1
		}
		for gcd(step, nlines) != 1 {
			step += 2
		}
		pos := int64(0)
		for i := 0; i < n; i++ {
			out = append(out, cachesim.Access{Addr: base + pos*64, Write: isWrite()})
			pos = (pos + step) % nlines
		}
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Interleave merges several traces round-robin, approximating the
// interleaving of accesses to multiple objects within one phase.
func Interleave(traces ...[]cachesim.Access) []cachesim.Access {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]cachesim.Access, 0, total)
	idx := make([]int, len(traces))
	for len(out) < total {
		for i, t := range traces {
			if idx[i] < len(t) {
				out = append(out, t[idx[i]])
				idx[i]++
			}
		}
	}
	return out
}
