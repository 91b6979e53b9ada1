package exp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/scenario"
)

// This file is the analytic fast path's wall-clock benchmark: matched
// exact-vs-fast executions of long stationary runs, the workload shape
// the fast path exists for. Every pair also differentially verifies
// byte-identity (a fast path that is fast but wrong must fail the bench,
// not just the test suite), and the document records the analytic
// fraction so a silently-disengaged fast path is visible as a speedup of
// ~1 with AnalyticFrac ~0 rather than a mystery.

// FastpathBenchCell is one (workload, platform) comparison.
type FastpathBenchCell struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	Trials     int    `json:"trials"`
	// ExactNS/FastNS are median wall-clock times of the full event-driven
	// simulation and the fast-path run.
	ExactNS int64 `json:"exact_ns"`
	FastNS  int64 `json:"fast_ns"`
	// Speedup is ExactNS/FastNS — machine-independent (both sides run in
	// the same process on the same machine), which is what -check gates.
	Speedup float64 `json:"speedup"`
	// AnalyticFrac is the fraction of iterations the fast run skipped
	// analytically (from the run's FastPathStats).
	AnalyticFrac float64 `json:"analytic_frac"`
	// Identical reports the differential verdict: the two results are
	// deeply equal.
	Identical bool `json:"identical"`
}

// FastpathBenchDoc is the top-level BENCH_fastpath.json document.
type FastpathBenchDoc struct {
	Mode       string              `json:"mode"` // "fastpath"
	Quick      bool                `json:"quick"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Cells      []FastpathBenchCell `json:"cells"`
	// MinSpeedup is the worst cell's speedup — the figure the -check gate
	// compares against its absolute floor.
	MinSpeedup float64 `json:"min_speedup"`
}

// fastpathBenchCells returns the benchmark matrix: long stationary runs
// on the paper's two-tier platform and the capacity-tight three-tier
// stack (the multiple-choice-knapsack runtime path).
func fastpathBenchCells(quick bool) []struct {
	name  string
	m     *machine.Machine
	iters int
} {
	iters := 9600
	if quick {
		iters = 4800
	}
	tight := machine.PlatformHBMDDRNVM().
		WithTierCapacity(0, 96<<20).
		WithTierCapacity(1, 160<<20)
	tight.Name = "HBM+DDR+NVM/tight"
	return []struct {
		name  string
		m     *machine.Machine
		iters int
	}{
		{"stable/two-tier", machine.PlatformA().WithNVMLatencyFactor(4), iters},
		{"stable/three-tier", tight, iters},
	}
}

// RunFastpathBench measures the analytic fast path's wall-clock speedup
// over exact simulation on long stationary runs, differentially
// verifying every pair. logf receives progress lines.
func RunFastpathBench(quick bool, logf func(string, ...interface{})) (*FastpathBenchDoc, error) {
	doc := &FastpathBenchDoc{Mode: "fastpath", Quick: quick, GoMaxProcs: runtime.GOMAXPROCS(0)}
	trials := 5
	if quick {
		trials = 3
	}
	eng := NewEngine(false, nil) // uncached: every trial really executes
	ctx := context.Background()

	for _, c := range fastpathBenchCells(quick) {
		spec, err := scenario.Generate(scenario.ArchStable, 0x5EED)
		if err != nil {
			return nil, err
		}
		spec.Ranks = 2
		spec.Iterations = c.iters
		w, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		run := func(exact bool) (*app.Result, app.FastPathStats, time.Duration, error) {
			var st app.FastPathStats
			start := time.Now()
			// The tight MaterializeCap (applied to both sides) keeps real
			// memory zeroing — a fixed per-run cost unrelated to what this
			// bench measures — from flattering or masking the ratio.
			res, _, err := eng.Execute(ctx, w, c.m, StrategyUnimem(), cfg,
				app.Options{Ranks: spec.Ranks, ExactSim: exact, FastPath: &st,
					MaterializeCap: 64 << 10})
			return res, st, time.Since(start), err
		}
		// Warm the engine's memoized calibration so neither side pays it.
		if _, _, _, err := run(false); err != nil {
			return nil, err
		}

		var exactNS, fastNS []int64
		var exactRes, fastRes *app.Result
		var fpStats app.FastPathStats
		for i := 0; i < trials; i++ {
			res, _, d, err := run(true)
			if err != nil {
				return nil, err
			}
			exactRes, exactNS = res, append(exactNS, d.Nanoseconds())
			res, st, d, err := run(false)
			if err != nil {
				return nil, err
			}
			fastRes, fpStats, fastNS = res, st, append(fastNS, d.Nanoseconds())
		}
		cell := FastpathBenchCell{
			Name:       c.name,
			Iterations: c.iters,
			Trials:     trials,
			ExactNS:    medianNS(exactNS),
			FastNS:     medianNS(fastNS),
			Identical:  reflect.DeepEqual(exactRes, fastRes),
		}
		if cell.FastNS > 0 {
			cell.Speedup = float64(cell.ExactNS) / float64(cell.FastNS)
		}
		if total := fpStats.SimulatedIters + fpStats.AnalyticIters; total > 0 {
			cell.AnalyticFrac = float64(fpStats.AnalyticIters) / float64(total)
		}
		doc.Cells = append(doc.Cells, cell)
		if logf != nil {
			logf("fastpath %s: %d iters, exact %v fast %v -> %.1fx (analytic %.0f%%, identical=%v)",
				c.name, c.iters, time.Duration(cell.ExactNS).Round(time.Microsecond),
				time.Duration(cell.FastNS).Round(time.Microsecond),
				cell.Speedup, 100*cell.AnalyticFrac, cell.Identical)
		}
	}

	for i, c := range doc.Cells {
		if i == 0 || c.Speedup < doc.MinSpeedup {
			doc.MinSpeedup = c.Speedup
		}
	}
	if len(doc.Cells) == 0 {
		return nil, fmt.Errorf("fastpath bench produced no cells")
	}
	return doc, nil
}

// medianNS returns the median of ns (sorted in place).
func medianNS(ns []int64) int64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2]
}
