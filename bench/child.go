package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"unimem/internal/app"
	"unimem/internal/mpisim"
)

// childOpts configures one child process: one workload, one seed.
type childOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// t0 is when the parent started the child; set-up time runs from it.
	t0 time.Time
}

// report is what a child prints, as its last stdout line, for the parent.
type report struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Golden    map[string]string  `json:"golden,omitempty"`
}

// opResult is one measured op: its golden key, host latency and output
// digest, or the error that failed it.
type opResult struct {
	key     string
	latency time.Duration
	digest  string
	err     error
}

// instance is a workload whose inputs are built (and, for serve-mixed,
// whose server is up and warm).
type instance interface {
	// measure runs the timed section. Untraced, it returns the end-to-end
	// metrics except setup_s; traced, the per-layer metrics.
	measure(trace bool) ([]opResult, map[string]float64, error)
	// golden computes the digest of every op the workload can issue.
	golden() (map[string]string, error)
	close()
}

// workload is one benchmark workload; BENCHMARK.json gives the reason
// each is in the benchmark.
type workload struct {
	name  string
	setup func(o childOpts) (instance, error)
}

var workloadList = []workload{
	{"paper-suite", func(o childOpts) (instance, error) { return newBatch(paperSuite{}, o), nil }},
	{"wide-world", func(o childOpts) (instance, error) { return newBatch(newWideWorld(), o), nil }},
	{"serve-mixed", func(o childOpts) (instance, error) { return newServeMixed(o) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// childMain runs one child: set-up, then the requested mode, then one
// JSON report line on stdout.
func childMain(mode string, o childOpts) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	inst, err := w.setup(o)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	rep := report{SetupS: time.Since(o.t0).Seconds()}
	switch mode {
	case "setup":
	case "golden":
		if rep.Golden, err = inst.golden(); err != nil {
			return err
		}
	case "measure":
		ops, m, err := inst.measure(o.trace)
		if err != nil {
			return err
		}
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		rep.Attempted, rep.Failed, rep.Metrics = len(ops), checkOps(ops, golden[w.name]), m
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssInterval is how often a measured section samples its resident set.
const rssInterval = 10 * time.Millisecond

// rssSampler records the process's resident set size every rssInterval
// from start until p90 is called.
type rssSampler struct {
	once       sync.Once
	stop, done chan struct{}
	mib        []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				var size, resident float64
				if b, err := os.ReadFile("/proc/self/statm"); err == nil {
					if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
						s.mib = append(s.mib, resident*page)
					}
				}
			}
		}
	}()
	return s
}

// p90 stops the sampler and returns the resident set size the process
// stayed at or below for 90% of the samples. The peak itself is set by
// where garbage collections happen to fall and moves by a third from run
// to run on paper-suite; the 90th percentile moves by a few percent.
func (s *rssSampler) p90() (float64, error) {
	s.halt()
	return percentile(s.mib, 0.9)
}

// halt stops the sampler and waits for it; calling it again is a no-op.
func (s *rssSampler) halt() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// opLatencies returns the end-to-end op latency metrics: the median and
// the highest percentile (at most p99) with ten samples beyond it.
func opLatencies(ops []opResult, into map[string]float64) error {
	ms := make([]float64, len(ops))
	for i, op := range ops {
		ms[i] = float64(op.latency) / float64(time.Millisecond)
	}
	var err error
	if into["op_p50_ms"], err = percentile(ms, 0.5); err != nil {
		return err
	}
	into["op_tail_ms"], err = percentile(ms, tailP(len(ms)))
	return err
}

// newLayerMetrics returns every per-layer metric at zero: a workload
// fills in what it measures.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// goMetrics are the runtime/metrics counters the traced pass reports as
// deltas, with their per-layer names.
var goMetrics = []struct{ runtime, name string }{
	{"/gc/heap/allocs:bytes", "go.alloc_bytes"},
	{"/gc/heap/allocs:objects", "go.alloc_objects"},
	{"/gc/cycles/total:gc-cycles", "go.gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "go.gc_cpu_s"},
}

func readGoMetrics() []float64 {
	s := make([]metrics.Sample, len(goMetrics))
	for i, g := range goMetrics {
		s[i].Name = g.runtime
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// tracer covers one traced section: a CPU profile charged to layers, and
// deltas of the process-wide counters the Go runtime, the event core and
// the fast path keep.
type tracer struct {
	prof bytes.Buffer
	gos  []float64
	core mpisim.CoreStats
	fast app.FastPathStats
}

func startTrace() (*tracer, error) {
	t := &tracer{gos: readGoMetrics(), core: mpisim.ReadCoreStats(), fast: app.ReadFastPathTotals()}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, err
	}
	return t, nil
}

// stop ends the section and writes its metrics into lm.
func (t *tracer) stop(lm map[string]float64) error {
	pprof.StopCPUProfile()
	gos, core, fast := readGoMetrics(), mpisim.ReadCoreStats(), app.ReadFastPathTotals()
	for i, g := range goMetrics {
		lm[g.name] = gos[i] - t.gos[i]
	}
	lm["mpisim.worlds"] = float64(core.Worlds - t.core.Worlds)
	lm["mpisim.events"] = float64(core.Events - t.core.Events)
	lm["mpisim.collectives"] = float64(core.Collectives - t.core.Collectives)
	if scans := core.InboxScans - t.core.InboxScans; scans > 0 {
		lm["mpisim.inbox_scan_len"] = float64(core.InboxScanned-t.core.InboxScanned) / float64(scans)
	}
	analytic := fast.AnalyticIters - t.fast.AnalyticIters
	if iters := analytic + fast.SimulatedIters - t.fast.SimulatedIters; iters > 0 {
		lm["app.fastpath.analytic_frac"] = float64(analytic) / float64(iters)
	}
	lm["app.fastpath.fastforwards"] = float64(fast.FastForwards - t.fast.FastForwards)
	shares, err := cpuShares(t.prof.Bytes())
	if err != nil {
		return err
	}
	for l, v := range shares {
		lm[l+".cpu_share"] = v
	}
	return nil
}

// fail prints err and exits non-zero without a result line.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
