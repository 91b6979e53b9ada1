package unimem

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"unimem/internal/exp"
)

// Session is the stateful entry point of the library: one value that owns
// everything repeated runs on a machine should share — the memoized
// platform Calibration, a RunCache of deterministic baseline executions,
// and a worker pool for batch APIs — and executes any Workload under any
// Strategy with context cancellation plumbed down to the simulated ranks.
//
//	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
//	sess := unimem.New(m)
//	base, err := sess.Run(ctx, w, unimem.SlowestOnly())
//	uni, err := sess.Run(ctx, w, unimem.Unimem())
//
// A Session is safe for concurrent use by multiple goroutines: results
// are deterministic per (workload, strategy, options) regardless of
// interleaving, and concurrent requests for the same memoized baseline
// execute it once (singleflight).
type Session struct {
	m       *Machine
	cfg     Config
	seed    uint64
	workers int
	window  int
	exact   bool
	eng     *exp.Engine
}

// RunCache memoizes deterministic runs by (workload and spec digest,
// machine performance fingerprint, strategy, harness options). Share one
// across sessions to share baselines; results are shared by pointer and
// must be treated as immutable.
type RunCache = exp.RunCache

// NewRunCache returns an empty, unbounded run cache.
func NewRunCache() *RunCache { return exp.NewRunCache() }

// NewRunCacheBounded returns an empty run cache bounded by a total entry
// count and/or byte budget (0 disables the respective bound). Eviction is
// least-recently-used; budgets are split across the cache's shards, so
// small bounds are approximate. Bounded caches back long-lived servers
// (cmd/unimem-serve) that must not grow without limit; they persist via
// RunCache.SaveSnapshot/LoadSnapshot.
func NewRunCacheBounded(maxEntries int, maxBytes int64) *RunCache {
	return exp.NewRunCacheBounded(maxEntries, maxBytes)
}

// CacheStats is a point-in-time snapshot of run-cache effectiveness.
type CacheStats = exp.CacheStats

// Option configures a Session at construction.
type Option func(*Session)

// WithConfig sets the Unimem runtime configuration used when a Job carries
// none (default: DefaultConfig). Only the Unimem strategy consults it.
func WithConfig(cfg Config) Option {
	return func(s *Session) { s.cfg = cfg }
}

// WithWorkers sets the worker-pool width RunAll and Stream fan jobs
// across (default: GOMAXPROCS; values below 1 run jobs serially).
func WithWorkers(n int) Option {
	return func(s *Session) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithSeed sets the harness seed applied to jobs whose Options carry none
// (default: the harness default seed).
func WithSeed(seed uint64) Option {
	return func(s *Session) { s.seed = seed }
}

// WithStreamWindow sets Stream's sliding-window size: how many outcomes
// may be computed but not yet delivered before the pool stalls waiting
// for the consumer (default: twice the worker-pool width; values below 1
// restore the default). Larger windows decouple fast workers from a slow
// consumer at the cost of retaining more results; the window also bounds
// Stream's memory on large fleets.
func WithStreamWindow(n int) Option {
	return func(s *Session) {
		if n < 1 {
			n = 0
		}
		s.window = n
	}
}

// WithQuick caps workload iteration counts (at 12) for fast, less
// faithful runs — the same capping the experiment suite applies under
// testing.B.
func WithQuick() Option {
	return func(s *Session) { s.eng.SetQuick(true) }
}

// WithCache installs the run cache (pass a shared cache to share memoized
// baselines across sessions; pass nil to disable run memoization — the
// calibration stays memoized either way).
func WithCache(c *RunCache) Option {
	return func(s *Session) { s.eng.SetCache(c) }
}

// WithExactSim disables the analytic fast path for every run the session
// executes: each iteration is simulated event-for-event even through
// provably steady windows. Results are byte-identical either way — the
// fast path only engages where extrapolation is exact — so this is a
// verification and benchmarking knob, not a fidelity one. Per-job opt-out
// is available through Job.Options.ExactSim.
func WithExactSim() Option {
	return func(s *Session) { s.exact = true }
}

// New returns a Session bound to machine m. By default the session runs
// with DefaultConfig, a fresh private RunCache, and a GOMAXPROCS-wide
// worker pool.
func New(m *Machine, opts ...Option) *Session {
	if m == nil {
		panic("unimem: New requires a machine")
	}
	s := &Session{
		m:       m,
		cfg:     DefaultConfig(),
		workers: runtime.GOMAXPROCS(0),
		eng:     exp.NewEngine(false, exp.NewRunCache()),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Machine returns the machine the session is bound to.
func (s *Session) Machine() *Machine { return s.m }

// Calibration returns the session's memoized one-time platform
// measurement (§3.1.2), computing it on first use. Every Unimem run whose
// Config carries no Calibration uses this value, so a session calibrates
// its machine exactly once no matter how many runs it serves.
func (s *Session) Calibration() Calibration {
	return s.eng.Calibration(s.m, s.cfg.Counters, s.cfg.Seed^0xCA11B)
}

// CacheStats snapshots the session's run-cache hit/miss counters.
func (s *Session) CacheStats() CacheStats { return s.eng.Stats() }

// PoolStats reports the session worker pool's current depth: jobs queued
// (accepted by a batch API but not yet dispatched) and jobs running.
func (s *Session) PoolStats() (queued, running int64) { return s.eng.PoolStats() }

// Job is one unit of batch work: a workload and the strategy to place it
// under, with optional per-job overrides.
type Job struct {
	Workload *Workload
	Strategy Strategy
	// Config overrides the session's Unimem configuration for this job
	// (nil: session default). Only the Unimem strategy consults it.
	Config *Config
	// Options overrides harness options; a zero Seed falls back to the
	// session seed, a zero Ranks to the workload's world size.
	Options Options
}

// Outcome is one job's result.
type Outcome struct {
	// Index is the job's position in the submitted batch (0 for Run).
	Index int
	// Job echoes the submitted job.
	Job Job
	// Result is the run outcome (nil when Err is set, or when a memoized
	// baseline failed).
	Result *Result
	// Runtimes holds the per-rank Unimem runtimes in rank order for
	// inspection; nil for non-Unimem strategies.
	Runtimes []*Runtime
	// Err is the job's error: a run failure, or the context's error when
	// the job was cancelled or never dispatched.
	Err error
	// CacheHit reports whether the result was served from the session's
	// run cache rather than a fresh execution (always false for the
	// Unimem strategy, which never caches).
	CacheHit bool
	// Explain is the job's decision-attribution document, snapshotted
	// after the run when Options.Explain was set (nil otherwise).
	Explain *ExplainDoc
	// FastPath reports the analytic fast path's iteration and
	// fast-forward counters for this job. All zeros for cache hits,
	// strategies whose managers cannot fast-forward, or runs opted out via
	// ExactSim.
	FastPath FastPathStats

	mach *Machine
}

// Tiered annotates a Unimem outcome with rank 0's per-tier residency and
// migration statistics. It returns nil when the outcome carries no
// result or no runtimes (baseline strategies run no Unimem runtime, and
// may execute on a derived twin of the session machine, so there is no
// per-tier truth to report for them).
func (o *Outcome) Tiered() *TieredResult {
	if o == nil || o.Result == nil || o.Runtimes == nil {
		return nil
	}
	tr := &TieredResult{Result: o.Result}
	var resident []int64
	for _, rt := range o.Runtimes {
		if rt.Rank() == 0 {
			resident = rt.TierResidencyBytes()
			break
		}
	}
	r0 := o.Result.Ranks[0]
	for t := 0; t < o.mach.NumTiers(); t++ {
		u := TierUsage{Tier: t, Name: o.mach.TierName(TierKind(t))}
		if t < len(resident) {
			u.ResidentBytes = resident[t]
		}
		if t < len(r0.Migrations.ToTier) {
			u.MovesIn = r0.Migrations.ToTier[t]
		}
		tr.Tiers = append(tr.Tiers, u)
	}
	return tr
}

// do executes one job and shapes its outcome. It never panics on a
// malformed job; the outcome carries the error instead so batch APIs stay
// total.
func (s *Session) do(ctx context.Context, idx int, job Job) Outcome {
	o := Outcome{Index: idx, Job: job, mach: s.m}
	if job.Workload == nil {
		o.Err = errors.New("unimem: job has nil Workload")
		return o
	}
	if job.Options.Ranks < 0 {
		// A negative world size would panic the simulator's world
		// constructor (zero means "use the workload's own").
		o.Err = errors.New("unimem: job Options.Ranks must be >= 0")
		return o
	}
	cfg := s.cfg
	if job.Config != nil {
		cfg = *job.Config
	}
	opts := job.Options
	if opts.Seed == 0 {
		opts.Seed = s.seed
	}
	if s.exact {
		opts.ExactSim = true
	}
	var info exp.ExecInfo
	o.Result, o.Runtimes, info, o.Err = s.eng.ExecuteInfo(ctx, job.Workload, s.m, job.Strategy, cfg, opts)
	o.CacheHit = info.CacheHit
	o.FastPath = info.FastPath
	if opts.Explain != nil {
		o.Explain = opts.Explain.Doc()
	}
	return o
}

// Run executes workload w under the strategy, bounded by ctx. The outcome
// is returned even on error (its Err field matches the returned error).
func (s *Session) Run(ctx context.Context, w *Workload, st Strategy) (*Outcome, error) {
	return s.RunJob(ctx, Job{Workload: w, Strategy: st})
}

// RunJob is Run with per-job configuration and harness options.
func (s *Session) RunJob(ctx context.Context, job Job) (*Outcome, error) {
	o := s.do(ctx, 0, job)
	return &o, o.Err
}

// RunAll executes the jobs across the session's worker pool and returns
// one outcome per job in job order, regardless of worker count or
// completion interleaving. The returned error is the first job error in
// index order (the same one a serial loop would surface), or the context
// error if the batch was cancelled; outcomes of jobs that were never
// dispatched carry the context error.
func (s *Session) RunAll(ctx context.Context, jobs []Job) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]Outcome, len(jobs))
	ran := make([]bool, len(jobs))
	perr := s.eng.ForEach(ctx, s.workers, len(jobs), func(i int) error {
		outs[i] = s.do(ctx, i, jobs[i])
		ran[i] = true
		return nil
	})
	for i := range outs {
		if !ran[i] {
			outs[i] = Outcome{Index: i, Job: jobs[i], Err: perr, mach: s.m}
		}
	}
	for i := range outs {
		if outs[i].Err != nil {
			return outs, outs[i].Err
		}
	}
	return outs, perr
}

// streamWindow returns the effective Stream window: the configured value,
// or twice the worker-pool width (the pool stays busy while the emitter
// drains) with a floor of 2.
func (s *Session) streamWindow() int {
	if s.window > 0 {
		return s.window
	}
	w := 2 * s.workers
	if w < 2 {
		w = 2
	}
	return w
}

// Stream executes the jobs across the session's worker pool and delivers
// exactly one outcome per job on the returned channel, in job order
// (outcome i is sent before outcome i+1 even when job i+1 finishes
// first); the channel is closed after the last outcome.
//
// Memory is bounded by a sliding window (WithStreamWindow; default twice
// the worker-pool width): job i is not dispatched until outcome i-window
// has been delivered, so a large fleet holds O(window) results at any
// moment instead of buffering the whole batch. The flip side is
// backpressure: a consumer that stops receiving eventually stalls the
// pool, and the emitter is released only by draining the channel —
// abandoning it mid-batch leaks the emitter and parked pool goroutines
// along with the window.
// To stop early, cancel ctx and keep ranging: in-flight simulated worlds
// abort, the outcomes of cancelled and undispatched jobs carry the
// context error and arrive immediately, so the drain is cheap and the
// channel closes promptly.
func (s *Session) Stream(ctx context.Context, jobs []Job) <-chan Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	window := s.streamWindow()
	if window > n && n > 0 {
		window = n
	}
	out := make(chan Outcome)

	// st is the shared window state: a ring of the outcomes computed but
	// not yet delivered, the delivery cursor, and the two termination
	// signals. cond coordinates three parties — workers waiting for the
	// window to slide, the emitter waiting for its next slot to fill, and
	// the context hook broadcasting cancellation.
	st := struct {
		sync.Mutex
		cond      *sync.Cond
		ring      []Outcome
		filled    []bool
		emitted   int // next index to deliver
		cancelled bool
		poolDone  bool
	}{ring: make([]Outcome, window), filled: make([]bool, window)}
	st.cond = sync.NewCond(&st.Mutex)

	stopWatch := context.AfterFunc(ctx, func() {
		st.Lock()
		st.cancelled = true
		st.cond.Broadcast()
		st.Unlock()
	})
	go func() {
		s.eng.ForEach(ctx, s.workers, n, func(i int) error {
			st.Lock()
			for i >= st.emitted+window && !st.cancelled {
				st.cond.Wait()
			}
			if st.cancelled && i >= st.emitted+window {
				// The window will never reach this job; leave its slot
				// unfilled and let the emitter synthesize the cancelled
				// outcome once the pool has drained.
				st.Unlock()
				return nil
			}
			st.Unlock()
			o := s.do(ctx, i, jobs[i])
			st.Lock()
			st.ring[i%window] = o
			st.filled[i%window] = true
			st.cond.Broadcast()
			st.Unlock()
			return nil
		})
		stopWatch()
		st.Lock()
		st.poolDone = true
		st.cond.Broadcast()
		st.Unlock()
	}()
	go func() {
		defer close(out)
		for i := 0; i < n; i++ {
			slot := i % window
			st.Lock()
			for !st.filled[slot] && !st.poolDone {
				st.cond.Wait()
			}
			var o Outcome
			if st.filled[slot] {
				o = st.ring[slot]
				st.ring[slot] = Outcome{}
				st.filled[slot] = false
			} else {
				// The pool exited (cancellation) without running job i.
				o = Outcome{Index: i, Job: jobs[i], Err: ctx.Err(), mach: s.m}
			}
			// Slide the window before the (possibly blocking) send so the
			// pool keeps working while the consumer catches up; at most
			// window outcomes plus the one in flight are retained.
			st.emitted = i + 1
			st.cond.Broadcast()
			st.Unlock()
			out <- o
		}
	}()
	return out
}
