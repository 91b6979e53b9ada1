package main

import (
	"fmt"
	"math"
	"time"
)

// batchWork is a closed-loop workload: a fixed list of ops run back to
// back by one caller.
type batchWork interface {
	// pass runs every op once. When lm is non-nil the pass is traced and
	// also writes its workload-specific per-layer metrics there.
	pass(lm map[string]float64) ([]opResult, error)
}

// batchPassSeconds is the nominal length of one pass on the reference
// 2-core machine: --seconds buys round(seconds/batchPassSeconds) passes.
// Fixing the count from --seconds alone keeps the number of samples, and
// so the percentile each metric reports, the same on every run.
const batchPassSeconds = 10

// batch repeats a batchWork's fixed work in passes. It runs at least two:
// the op-latency median needs ten samples beyond it, and a traced run
// compares one untraced pass with one traced pass.
type batch struct {
	work   batchWork
	passes int
}

func newBatch(w batchWork, o childOpts) *batch {
	return &batch{work: w, passes: max(2, int(math.Round(float64(o.seconds)/batchPassSeconds)))}
}

func (b *batch) measure(trace bool) ([]opResult, map[string]float64, error) {
	var all, first []opResult
	var walls, cpus []float64
	lm := newLayerMetrics()
	rss := startRSS()
	defer rss.halt()
	for p := 0; p < b.passes; p++ {
		traced := trace && p == b.passes-1
		var tr *tracer
		var passLM map[string]float64
		if traced {
			var err error
			if tr, err = startTrace(); err != nil {
				return nil, nil, err
			}
			passLM = lm
		}
		c0, t0 := cpuSeconds(), time.Now()
		ops, err := b.work.pass(passLM)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		if traced {
			if terr := tr.stop(lm); err == nil {
				err = terr
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if p == 0 {
			first = ops
		} else if err := sameOutputs(first, ops); err != nil {
			return nil, nil, err
		}
		all = append(all, ops...)
	}
	if trace {
		n := len(walls) - 1
		lm["bench.trace_overhead_wall_frac"] = walls[n]/median(walls[:n]) - 1
		lm["bench.trace_overhead_cpu_frac"] = cpus[n]/median(cpus[:n]) - 1
		return all, lm, nil
	}
	m := map[string]float64{"wall_s": median(walls), "cpu_s": median(cpus)}
	var err error
	if m["rss_p90_mb"], err = rss.p90(); err != nil {
		return nil, nil, err
	}
	return all, m, opLatencies(all, m)
}

// sameOutputs checks that a later pass, traced or not, produced exactly
// the outputs of the first.
func sameOutputs(first, later []opResult) error {
	if len(first) != len(later) {
		return fmt.Errorf("pass ran %d ops, first pass %d", len(later), len(first))
	}
	for i := range first {
		a, b := first[i], later[i]
		if a.key != b.key || a.digest != b.digest || (a.err == nil) != (b.err == nil) {
			return fmt.Errorf("op %s: output differs between passes (digest %s, first pass %s)", b.key, b.digest, a.digest)
		}
	}
	return nil
}

func (b *batch) golden() (map[string]string, error) {
	ops, err := b.work.pass(nil)
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	for _, op := range ops {
		if op.err != nil {
			return nil, fmt.Errorf("op %s: %w", op.key, op.err)
		}
		g[op.key] = op.digest
	}
	return g, nil
}

func (b *batch) close() {}
