package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/counters"
	"unimem/internal/machine"
	"unimem/internal/model"
	"unimem/internal/workloads"
)

// Engine is the one execution path behind both public consumers: the
// library's Session and the experiment Suite. It owns the pieces every
// run shares —
//
//   - a memoized per-machine Calibration (the paper computes CF_bw /
//     CF_lat / BW_peak once per platform, not once per run),
//   - the RunCache memoizing deterministic baseline executions by
//     (workload+spec digest, machine fingerprint, strategy, options), and
//   - Quick-mode iteration capping.
//
// All methods are safe for concurrent use.
type Engine struct {
	mu    sync.Mutex
	quick bool
	cache *RunCache

	// calibMu guards only the calibration table, so an in-flight platform
	// measurement never stalls Execute's configuration snapshot; the
	// per-entry Once gives singleflight semantics per calibKey.
	calibMu sync.Mutex
	calib   map[calibKey]*calibEntry

	// poolQueued/poolRunning gauge the ForEach worker pool for the
	// observability layer: jobs accepted but not yet dispatched, and jobs
	// currently executing.
	poolQueued  atomic.Int64
	poolRunning atomic.Int64
}

// calibKey identifies one platform measurement: the machine's performance
// fingerprint plus the sampling configuration and seed that drove it.
type calibKey struct {
	machine  string
	counters string
	seed     uint64
}

type calibEntry struct {
	once sync.Once
	c    model.Calibration
}

// NewEngine returns an engine with the given Quick mode and cache (nil
// disables run memoization; calibration is always memoized).
func NewEngine(quick bool, cache *RunCache) *Engine {
	return &Engine{quick: quick, cache: cache, calib: map[calibKey]*calibEntry{}}
}

// SetQuick toggles Quick-mode iteration capping.
func (e *Engine) SetQuick(q bool) {
	e.mu.Lock()
	e.quick = q
	e.mu.Unlock()
}

// SetCache replaces the run cache (nil disables memoization).
func (e *Engine) SetCache(c *RunCache) {
	e.mu.Lock()
	e.cache = c
	e.mu.Unlock()
}

// snapshot reads the engine's mutable configuration atomically.
func (e *Engine) snapshot() (quick bool, cache *RunCache) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quick, e.cache
}

// Stats snapshots the run cache's hit/miss counters.
func (e *Engine) Stats() CacheStats {
	_, cache := e.snapshot()
	return cache.Stats()
}

// prepQuick applies Quick-mode iteration capping.
func prepQuick(w *workloads.Workload, quick bool) *workloads.Workload {
	if quick && w.Iterations > 12 {
		cp := *w
		cp.Iterations = 12
		return &cp
	}
	return w
}

// Calibration returns the memoized one-time platform measurement for m
// under the given sampling configuration and seed, computing it on first
// use (concurrent first users block on one measurement, not duplicate
// it). Machines are identified by performance fingerprint, so derived
// twins that are physically identical share one measurement.
func (e *Engine) Calibration(m *machine.Machine, cc counters.Config, seed uint64) model.Calibration {
	key := calibKey{machine: machineFingerprint(m), counters: fmt.Sprintf("%+v", cc), seed: seed}
	e.calibMu.Lock()
	entry, ok := e.calib[key]
	if !ok {
		entry = &calibEntry{}
		e.calib[key] = entry
	}
	e.calibMu.Unlock()
	entry.once.Do(func() { entry.c = model.Calibrate(m, cc, seed) })
	return entry.c
}

// ForEach fans fn across at most workers goroutines with deterministic
// slot semantics and context cancellation (see forEachRow); exported for
// the Session's batch APIs so one scheduler serves both consumers.
func (e *Engine) ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	e.poolQueued.Add(int64(n))
	var dispatched atomic.Int64
	err := forEachRow(ctx, workers, n, func(i int) error {
		dispatched.Add(1)
		e.poolQueued.Add(-1)
		e.poolRunning.Add(1)
		defer e.poolRunning.Add(-1)
		return fn(i)
	})
	// Jobs a cancelled fan-out never dispatched are no longer queued.
	e.poolQueued.Add(dispatched.Load() - int64(n))
	return err
}

// PoolStats reports the worker pool's current depth: jobs queued (accepted
// by ForEach but not yet dispatched) and jobs running.
func (e *Engine) PoolStats() (queued, running int64) {
	return e.poolQueued.Load(), e.poolRunning.Load()
}

// Execute runs workload w on machine m under the strategy, bounded by ctx.
//
// Static and X-Mem strategies memoize in the engine's cache (results are
// shared by pointer and must be treated as immutable); the Unimem runtime
// executes fresh every time and additionally returns the per-rank
// runtimes in rank order for introspection. When the Unimem config
// carries no Calibration, the engine installs the memoized platform
// measurement derived exactly like the runtime's own lazy path
// (seed cfg.Seed^0xCA11B), so results are bit-identical to a per-rank
// lazy calibration at a fraction of the cost.
func (e *Engine) Execute(ctx context.Context, w *workloads.Workload, m *machine.Machine, st Strategy, cfg core.Config, opts app.Options) (*app.Result, []*core.Runtime, error) {
	res, rts, _, err := e.ExecuteInfo(ctx, w, m, st, cfg, opts)
	return res, rts, err
}

// ExecInfo reports execution metadata alongside a run's result.
type ExecInfo struct {
	// CacheHit is true when the result was served from a memoized (or
	// in-flight) cache entry rather than a fresh execution. Always false
	// for the Unimem strategy, which never caches.
	CacheHit bool
	// FastPath reports the analytic fast path's iteration and
	// fast-forward counters for this execution. All zeros when the run
	// was served from the cache (nothing executed), the strategy's manager
	// cannot fast-forward, or the run opted out via Options.ExactSim.
	FastPath app.FastPathStats
}

// ExecuteInfo is Execute returning ExecInfo. When opts.Trace is set, the
// engine records wall-clock spans for its stages (calibration, cache
// lookup, the execution itself) alongside the virtual-clock spans the
// harness and runtime record during the run.
func (e *Engine) ExecuteInfo(ctx context.Context, w *workloads.Workload, m *machine.Machine, st Strategy, cfg core.Config, opts app.Options) (*app.Result, []*core.Runtime, ExecInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var info ExecInfo
	if !st.valid() {
		return nil, nil, info, fmt.Errorf("exp: zero Strategy value (use one of the Strategy constructors)")
	}
	quick, cache := e.snapshot()
	w = prepQuick(w, quick)
	m = st.targetMachine(m)
	tr := opts.Trace
	// Collect fast-path counters into the caller-visible info unless the
	// caller brought its own sink. Cache-inert: keyFor never reads it.
	if opts.FastPath == nil {
		opts.FastPath = &info.FastPath
	}

	if st.IsUnimem() {
		if cfg.Calibration == (model.Calibration{}) {
			calStart := time.Now()
			cfg.Calibration = e.Calibration(m, cfg.Counters, cfg.Seed^0xCA11B)
			if tr != nil {
				tr.WallSpan(0, "calibration", "engine", calStart, nil)
			}
		}
		col := NewCollector()
		execStart := time.Now()
		res, err := app.RunCtx(ctx, w, m, opts, col.Factory(cfg))
		if tr != nil {
			tr.WallSpan(0, "execute "+w.Name, "engine", execStart,
				map[string]any{"strategy": st.cacheKey(), "cached": false})
		}
		if res != nil {
			// Finalize the attribution document (a nil Explain no-ops):
			// stamp the run's identity and realized time, and derive the
			// regret figure from the decisions' oracle baselines.
			opts.Explain.Finish(w.Name, m.Name, st.cacheKey(), res.TimeNS, w.Iterations)
		}
		// Runtimes are returned even on error: the already-created per-rank
		// instances are the debugging handle a failed run leaves behind.
		return res, col.byRank(), info, err
	}

	execStart := time.Now()
	res, hit, err := cache.DoInfo(ctx, keyFor(w, m, st.cacheKey(), opts), func() (*app.Result, error) {
		mf, err := st.factory(ctx, w, m, opts)
		if err != nil {
			return nil, err
		}
		return app.RunCtx(ctx, w, m, opts, mf)
	})
	info.CacheHit = hit
	if tr != nil {
		tr.WallSpan(0, "execute "+w.Name, "engine", execStart,
			map[string]any{"strategy": st.cacheKey(), "cached": hit})
	}
	if res != nil {
		// Baseline strategies take no placement decisions, so the document
		// carries identity and realized time only (no regret); memoized
		// hits never re-executed, so there is nothing else to attribute.
		opts.Explain.Finish(w.Name, m.Name, st.cacheKey(), res.TimeNS, w.Iterations)
	}
	return res, nil, info, err
}
