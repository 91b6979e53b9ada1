package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"unimem"
	"unimem/internal/app"
	"unimem/internal/counters"
	"unimem/internal/exp"
	"unimem/internal/phase"
)

// wideWorld runs NPB CG, MG and SP at class A on 1024, 2048 and 4096
// ranks, each under the NVM-only baseline and under Unimem, on Platform A
// with 4x NVM latency and no run cache: 18 Session.Run calls, each one op.
type wideWorld struct {
	m     *unimem.Machine
	sess  *unimem.Session
	cells []wideCell
}

type wideCell struct {
	key string
	w   *unimem.Workload
	st  unimem.Strategy
}

func newWideWorld() *wideWorld {
	m := unimem.PlatformA().WithNVMLatencyFactor(4)
	ww := &wideWorld{m: m, sess: unimem.New(m, unimem.WithCache(nil))}
	// The session calibrates its machine once, on first use; pay that in
	// set-up so every pass does the same work.
	ww.sess.Calibration()
	for _, kernel := range []string{"CG", "MG", "SP"} {
		for _, ranks := range []int{1024, 2048, 4096} {
			w := unimem.NewNPB(kernel, "A", ranks)
			for _, st := range []unimem.Strategy{unimem.SlowestOnly(), unimem.Unimem()} {
				ww.cells = append(ww.cells, wideCell{fmt.Sprintf("%s.A.%d/%s", kernel, ranks, st.Name()), w, st})
			}
		}
	}
	return ww
}

func (ww *wideWorld) pass(lm map[string]float64) ([]opResult, error) {
	if lm != nil {
		return ww.tracedPass(lm)
	}
	ops := make([]opResult, 0, len(ww.cells))
	for _, c := range ww.cells {
		start := time.Now()
		o, err := ww.sess.Run(context.Background(), c.w, c.st)
		op := opResult{key: c.key, latency: time.Since(start), err: err}
		if err == nil {
			op.digest, op.err = digestJSON(o.Result)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// tracedPass runs the same cells through app.RunCtx with the manager
// factories the engine uses, each manager wrapped to time its callbacks.
// Its results must equal the untraced Session.Run results, which the
// batch compares digest by digest.
func (ww *wideWorld) tracedPass(lm map[string]float64) ([]opResult, error) {
	var clk managerClock
	var runWall time.Duration
	var migrations, bytesMigrated, decisions int
	ops := make([]opResult, 0, len(ww.cells))
	for _, c := range ww.cells {
		var mf app.ManagerFactory
		var col *exp.Collector
		if c.st.IsUnimem() {
			cfg := unimem.DefaultConfig()
			cfg.Calibration = ww.sess.Calibration()
			col = exp.NewCollector()
			mf = clk.wrap(col.Factory(cfg), false)
		} else {
			mf = clk.wrap(app.NewStaticFactory("nvm-only", nil), true)
		}
		start := time.Now()
		res, err := app.RunCtx(context.Background(), c.w, ww.m, app.Options{}, mf)
		d := time.Since(start)
		runWall += d
		op := opResult{key: c.key, latency: d, err: err}
		if err == nil {
			op.digest, op.err = digestJSON(res)
			migrations += res.TotalMigrations()
			bytesMigrated += int(res.TotalBytesMigrated())
			if col != nil {
				decisions += col.Decisions()
			}
		}
		ops = append(ops, op)
	}
	wall := float64(runWall)
	var callbacks int64
	for b, name := range bucketNames {
		ns := clk.ns[b].Load()
		callbacks += ns
		lm[name+"_share"] = float64(ns) / wall
	}
	lm["app.harness_share"] = (wall - float64(callbacks)) / wall
	lm["mover.migrations"] = float64(migrations)
	lm["mover.bytes_migrated"] = float64(bytesMigrated)
	lm["core.decisions"] = float64(decisions)
	return ops, nil
}

// Manager callback buckets.
const (
	bucketSetup = iota
	bucketPhaseBegin
	bucketPhaseEnd
	bucketLoopEnd
	bucketStaticSetup
	numBuckets
)

var bucketNames = [numBuckets]string{"core.setup", "core.phase_begin", "core.phase_end", "core.loop_end", "app.static_setup"}

// managerClock sums the host time spent in manager callbacks. The event
// core runs one rank coroutine at a time, so callback times never overlap
// and their sum is a part of RunCtx's wall time; the rest is the harness
// (traffic expansion, comm and the event core).
type managerClock struct {
	ns [numBuckets]atomic.Int64
}

func (c *managerClock) since(bucket int, start time.Time) {
	c.ns[bucket].Add(int64(time.Since(start)))
}

// wrap times every manager mf builds. A static manager's only real work
// is Setup (heap allocation); its other callbacks are no-ops left untimed.
func (c *managerClock) wrap(mf app.ManagerFactory, static bool) app.ManagerFactory {
	return func(rank int) app.Manager {
		m := mf(rank)
		fp, _ := m.(app.FastPather)
		return &timedManager{Manager: m, fp: fp, clk: c, static: static}
	}
}

// timedManager forwards to the wrapped manager, timing its callbacks. It
// forwards app.FastPather too, so the fast path engages exactly as it does
// for the unwrapped manager.
type timedManager struct {
	app.Manager
	fp     app.FastPather
	clk    *managerClock
	static bool
}

func (t *timedManager) Setup(ctx *app.RankCtx) error {
	b := bucketSetup
	if t.static {
		b = bucketStaticSetup
	}
	defer t.clk.since(b, time.Now())
	return t.Manager.Setup(ctx)
}

func (t *timedManager) PhaseBegin(ctx *app.RankCtx, name string, kind phase.Kind, mpiOp string) {
	if !t.static {
		defer t.clk.since(bucketPhaseBegin, time.Now())
	}
	t.Manager.PhaseBegin(ctx, name, kind, mpiOp)
}

func (t *timedManager) PhaseEnd(ctx *app.RankCtx, durNS float64, traffic []counters.ChunkTraffic) {
	if !t.static {
		defer t.clk.since(bucketPhaseEnd, time.Now())
	}
	t.Manager.PhaseEnd(ctx, durNS, traffic)
}

func (t *timedManager) LoopEnd(ctx *app.RankCtx) {
	if !t.static {
		defer t.clk.since(bucketLoopEnd, time.Now())
	}
	t.Manager.LoopEnd(ctx)
}

func (t *timedManager) SteadyState() bool { return t.fp != nil && t.fp.SteadyState() }

func (t *timedManager) FastForward(n int) { t.fp.FastForward(n) }
