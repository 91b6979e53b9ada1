package exp

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/counters"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// TestEngineStrategiesMatchLegacyHelpers: every strategy produces the
// manager name and result its pre-engine Suite helper produced, and
// baseline strategies land in the cache under their historical keys.
func TestEngineStrategiesMatchLegacyHelpers(t *testing.T) {
	e := NewEngine(true, NewRunCache())
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	w := workloads.NewCG("A", 2)
	ctx := context.Background()
	opts := app.Options{Ranks: 2, Seed: 1}

	for _, tc := range []struct {
		st      Strategy
		manager string
	}{
		{StrategySlowestOnly(), "nvm-only"},
		{StrategyDRAMOnly(), "dram-only"},
		{StrategyFastestOnly(), "fast-only"},
		{StrategyHintDensity(), "tiered-static"},
		{StrategyXMem(), "xmem"},
		{StrategyUnimem(), "unimem"},
	} {
		res, rts, err := e.Execute(ctx, w, m, tc.st, core.DefaultConfig(), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.st.Name(), err)
		}
		if res.Manager != tc.manager {
			t.Errorf("%s: manager %q, want %q", tc.st.Name(), res.Manager, tc.manager)
		}
		if tc.st.IsUnimem() != (rts != nil) {
			t.Errorf("%s: runtimes presence mismatch (unimem=%v, rts=%d)", tc.st.Name(), tc.st.IsUnimem(), len(rts))
		}
	}
	// Five cacheable strategies -> five entries; the Unimem run stays out
	// of the cache (fresh runtimes per call).
	if st := e.Stats(); st.Entries != 5 {
		t.Errorf("cache holds %d entries, want 5", st.Entries)
	}
}

// TestEngineCalibrationSharedAcrossTwins: physically identical machines
// share one memoized calibration regardless of derivation chain.
func TestEngineCalibrationSharedAcrossTwins(t *testing.T) {
	e := NewEngine(false, nil)
	a := machine.PlatformA().WithNVMBandwidthFraction(0.5).FastTwin()
	b := machine.PlatformA().WithNVMLatencyFactor(4).WithNVMLatencyFactor(1).WithNVMBandwidthFraction(1)
	ca := e.Calibration(a, counters.Default(), 7)
	cb := e.Calibration(b, counters.Default(), 7)
	if ca != cb {
		t.Error("fingerprint-identical twins did not share a calibration")
	}
	if ca == e.Calibration(a, counters.Default(), 8) {
		t.Error("different seeds must calibrate separately")
	}
}

// TestRunCacheCancellationNotPoisoned: a Do whose run is aborted by
// context cancellation must not memoize the failure — the next caller
// with a live context re-executes and gets the real result.
func TestRunCacheCancellationNotPoisoned(t *testing.T) {
	c := NewRunCache()
	key := testKey("cancellable")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, key, func() (*app.Result, error) {
		return nil, ctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: err = %v", err)
	}

	res, err := c.Do(context.Background(), key, func() (*app.Result, error) {
		return &app.Result{TimeNS: 9}, nil
	})
	if err != nil || res.TimeNS != 9 {
		t.Fatalf("post-cancellation Do = %v, %v; cancellation poisoned the key", res, err)
	}
}

// TestRunCacheWaiterHonorsOwnContext: a waiter blocked on another
// caller's in-flight run gives up when its own context dies.
func TestRunCacheWaiterHonorsOwnContext(t *testing.T) {
	c := NewRunCache()
	key := testKey("slow")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key, func() (*app.Result, error) {
			close(started)
			<-release
			return &app.Result{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, key, func() (*app.Result, error) {
		t.Error("waiter executed the run")
		return nil, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want deadline exceeded", err)
	}
	close(release)
}

// TestSuiteHonorsContext: a dead suite context aborts a whole experiment
// runner with the context's error.
func TestSuiteHonorsContext(t *testing.T) {
	s := quickSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	if _, err := s.Fig9(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9 under dead context: err = %v", err)
	}
	// Fleet path too (generation happens before the pool; the pool must
	// still refuse to run cells).
	if _, err := s.ScenarioFleet(); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScenarioFleet under dead context: err = %v", err)
	}
}

// TestForEachRowContextCancel: the pool stops dispatching once the
// context dies and reports the context error.
func TestForEachRowContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := forEachRow(ctx, workers, 100, func(i int) error {
			if i == 0 {
				cancel()
			}
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() == 100 {
			t.Errorf("workers=%d: pool dispatched every cell after cancellation", workers)
		}
	}
}

// TestEngineRunAllocationCeilings bounds the bytes one uncached Unimem run
// allocates, with the platform calibration taken beforehand. Byte counts
// do not depend on the host, so each ceiling is a machine-independent gate:
//   - Nek5000 class C at 4 ranks allocates 48 objects per rank and migrates
//     hundreds of chunks; zeroed and copied chunk backing would put it near
//     690 MiB, the runtime's bookkeeping alone near 7 MiB.
//   - MG class A at 1024 ranks is dominated by per-rank state; a mover
//     that owned a goroutine and a 256-slot request channel per rank put it
//     near 35 MiB, a plain per-rank FIFO near 25.5 MiB, and chunk tables
//     indexed by dense chunk IDs instead of names near 10.6 MiB.
//   - CG class A at 1024 ranks decides once per rank over 9 chunks and 7
//     phases and migrates 2048 chunks. Name-keyed placement sets, a fresh
//     traffic slice per phase and per-call name formatting put it near
//     44 MiB; dense chunk IDs and a reused traffic buffer near 16.7 MiB.
func TestEngineRunAllocationCeilings(t *testing.T) {
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	for _, tc := range []struct {
		name     string
		w        *workloads.Workload
		migrates bool
		ceiling  uint64
	}{
		{"Nek5000-C-4", workloads.NewNek5000("C", 4), true, 32 << 20},
		{"MG-A-1024", workloads.NewMG("A", 1024), false, 16 << 20},
		{"CG-A-1024", workloads.NewCG("A", 1024), true, 24 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(false, nil)
			cfg := core.DefaultConfig()
			cfg.Calibration = e.Calibration(m, cfg.Counters, cfg.Seed^0xCA11B)
			opts := app.Options{Ranks: tc.w.Ranks}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, _, err := e.Execute(context.Background(), tc.w, m, StrategyUnimem(), cfg, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if tc.migrates && res.TotalMigrations() == 0 {
				t.Fatal("the run migrated nothing; the gate measures no migration")
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("allocated %.1f MiB (%d migrations)", float64(got)/(1<<20), res.TotalMigrations())
			if got > tc.ceiling {
				t.Fatalf("one run allocated %.1f MiB, above the %d MiB ceiling (%d migrations)",
					float64(got)/(1<<20), tc.ceiling>>20, res.TotalMigrations())
			}
		})
	}
}
