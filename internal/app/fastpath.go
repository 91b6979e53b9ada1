package app

import (
	"slices"
	"sync/atomic"

	"unimem/internal/counters"
	"unimem/internal/mpisim"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// This file is the harness half of the analytic fast path: steady-state
// fast-forward. Each rank tracks, per phase position, how many
// consecutive iterations presented the same (content x placement) key.
// When every rank votes — in lockstep, through the simulator's zero-cost
// Poll rendezvous — that its manager is quiescent, its keys have been
// stable for K iterations and its last two iteration clock deltas are
// equal, and all ranks' deltas agree, the remaining iterations of the
// stable window (bounded by the workload's content epochs, shared by
// every rank) are skipped: clocks, CommNS, per-phase means and manager
// bookkeeping are advanced analytically in one step. Soundness: at a
// unanimous iteration boundary every inbox is empty and the run heap is
// quiescent, so with equal per-rank advances the relative clock offsets
// — the only cross-rank state — are preserved, and a skipped iteration
// would have replayed the previous one exactly, event for event.

// Fast-path engagement thresholds: polls begin once enough iterations
// have completed to compare two consecutive clock deltas, and a window
// counts as stable once every phase position has re-presented the same
// key for this many consecutive iterations.
const (
	fastPathMinIter     = 3
	fastPathStableIters = 3
)

// FastPather is the optional Manager extension the analytic fast path
// requires: a manager that can certify quiescence and adjust its
// bookkeeping when the harness skips iterations analytically. Managers
// that do not implement it run exact simulation unconditionally.
type FastPather interface {
	// SteadyState reports that the manager will not change placement,
	// charge variable overhead, or toggle profiling as long as upcoming
	// iterations repeat the current one.
	SteadyState() bool
	// FastForward advances the manager's iteration bookkeeping across n
	// skipped iterations, replaying any constant per-iteration overhead
	// accounting the simulated path would have recorded.
	FastForward(n int)
}

// FastPathStats summarizes the analytic fast path's work in one run, from
// rank 0's view (skips are unanimous, so every rank's counts agree). All
// zeros when the fast path was disabled or never engaged.
type FastPathStats struct {
	SimulatedIters int64 `json:"simulated_iters"`
	AnalyticIters  int64 `json:"analytic_iters"`
	FastForwards   int64 `json:"fastforwards"`
}

// add accumulates o into s; concurrent runs flush into the process
// totals, so the adds are atomic. Safe on a nil receiver.
func (s *FastPathStats) add(o FastPathStats) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.SimulatedIters, o.SimulatedIters)
	atomic.AddInt64(&s.AnalyticIters, o.AnalyticIters)
	atomic.AddInt64(&s.FastForwards, o.FastForwards)
}

// fpTotals accumulates process-wide fast-path totals across every run,
// the monotonic source the serve layer bridges onto /metrics (mirroring
// mpisim's event-core totals).
var fpTotals FastPathStats

// ReadFastPathTotals returns a snapshot of the process-wide fast-path
// totals.
func ReadFastPathTotals() FastPathStats {
	return FastPathStats{
		SimulatedIters: atomic.LoadInt64(&fpTotals.SimulatedIters),
		AnalyticIters:  atomic.LoadInt64(&fpTotals.AnalyticIters),
		FastForwards:   atomic.LoadInt64(&fpTotals.FastForwards),
	}
}

// fastPath is one rank's fast-path tracker. Nil when the run opted out
// (Options.ExactSim) or the manager is not a FastPather — both
// rank-independent facts, so either every rank tracks or none does and
// the Poll counts stay matched.
type fastPath struct {
	rc     *RankCtx
	mgr    FastPather
	epochs []int // the workload's content epochs, shared by every rank

	// Last simulated iteration's per-position content keys and measured
	// durations — the extrapolation template for skipped iterations.
	lastContent []phase.Key
	lastDur     []float64
	// Per-position streaks: the last (content x placement) key and how
	// many consecutive simulated iterations presented it.
	lastKey []phase.Key
	streak  []int
	// Rank 0 only: the run's per-phase accumulators, extrapolated by
	// repeated addition so a skipped window contributes the exact float
	// sums simulation would have.
	phaseNS    []float64
	phaseCount []int64

	iterStartClock int64
	iterStartComm  int64
	prevIterDelta  int64
	prevCommDelta  int64
	lastIterDelta  int64
	lastCommDelta  int64
	// simIters counts simulated iterations; steadyIters counts
	// consecutive iteration starts at which the manager was already
	// quiescent (the last simulated iteration's delta is only a valid
	// template if no migration or profile charge landed inside it).
	simIters    int
	steadyIters int

	stats FastPathStats
}

// newFastPath returns the rank's tracker, or nil when the fast path is
// off for this run. epochs must list every iteration at which some
// phase's content key changes (Workload.ComputeContentEpochs).
func newFastPath(rc *RankCtx, mgr Manager, opts *Options, epochs []int, phaseNS []float64, phaseCount []int64) *fastPath {
	if opts.ExactSim {
		return nil
	}
	fpm, ok := mgr.(FastPather)
	if !ok {
		return nil
	}
	n := len(rc.W.Phases)
	fp := &fastPath{
		rc:          rc,
		mgr:         fpm,
		epochs:      epochs,
		lastContent: make([]phase.Key, n),
		lastDur:     make([]float64, n),
		lastKey:     make([]phase.Key, n),
		streak:      make([]int, n),
	}
	if rc.Rank == 0 {
		fp.phaseNS, fp.phaseCount = phaseNS, phaseCount
	}
	return fp
}

// beginIter snapshots the rank's clocks at a simulated iteration's start
// and advances the manager-quiescence streak.
func (fp *fastPath) beginIter(c *mpisim.Comm) {
	fp.iterStartClock = c.Clock()
	fp.iterStartComm = c.CommNS
	if fp.mgr.SteadyState() {
		fp.steadyIters++
	} else {
		fp.steadyIters = 0
	}
}

// observePhase records one simulated phase execution: the workload
// content key folded with the placement-expanded traffic (chunk
// identity, accesses and tier-priced service time) extends or resets the
// position's streak, and the content key and measured duration become
// the position's extrapolation template.
func (fp *fastPath) observePhase(pi int, ph *workloads.Phase, iter int, durNS float64, traffic []counters.ChunkTraffic) {
	ck := ph.ContentKey(iter)
	d := phase.NewDigest().Uint64(uint64(ck))
	for _, t := range traffic {
		d = d.String(t.Chunk).
			Int64(t.Accesses).
			Float64(t.ServiceNS).
			Float64(t.ReadFrac).
			Int(int(t.Pattern))
	}
	fp.observe(pi, d.Key())
	fp.lastContent[pi] = ck
	fp.lastDur[pi] = durNS
}

// observe extends position pi's streak when key repeats its last key and
// restarts it at 1 otherwise.
func (fp *fastPath) observe(pi int, key phase.Key) {
	if fp.lastKey[pi] == key {
		fp.streak[pi]++
	} else {
		fp.lastKey[pi], fp.streak[pi] = key, 1
	}
}

// stableIters returns the number of consecutive simulated iterations over
// which every phase position re-presented the same key: the minimum
// streak across positions (0 before any observation).
func (fp *fastPath) stableIters() int {
	if len(fp.streak) == 0 {
		return 0
	}
	return slices.Min(fp.streak)
}

// endIter closes a simulated iteration, rolling the delta history.
func (fp *fastPath) endIter(c *mpisim.Comm) {
	fp.prevIterDelta, fp.prevCommDelta = fp.lastIterDelta, fp.lastCommDelta
	fp.lastIterDelta = c.Clock() - fp.iterStartClock
	fp.lastCommDelta = c.CommNS - fp.iterStartComm
	fp.simIters++
	fp.stats.SimulatedIters++
}

// steady is this rank's fast-forward vote: the manager has been
// quiescent since before the template iteration began, every phase
// position has presented the same (content x placement) key for K
// consecutive iterations, and the last two iteration deltas are equal —
// the rank's execution has provably settled into a fixed point.
func (fp *fastPath) steady() bool {
	return fp.simIters >= fastPathMinIter &&
		fp.steadyIters >= 2 &&
		fp.mgr.SteadyState() &&
		fp.stableIters() >= fastPathStableIters &&
		fp.lastIterDelta > 0 &&
		fp.lastIterDelta == fp.prevIterDelta &&
		fp.lastCommDelta == fp.prevCommDelta
}

// scan returns how many consecutive iterations starting at iter present
// exactly the last simulated iteration's content: 0 unless iter itself
// matches the template, else up to the first content epoch past iter. It
// reads only rank-independent workload ground truth, so every rank
// computes the same bound without further coordination.
func (fp *fastPath) scan(iter int) int {
	w := fp.rc.W
	for pi := range w.Phases {
		if w.Phases[pi].ContentKey(iter) != fp.lastContent[pi] {
			return 0
		}
	}
	end := w.Iterations
	if i, _ := slices.BinarySearch(fp.epochs, iter+1); i < len(fp.epochs) {
		end = min(end, fp.epochs[i])
	}
	return end - iter
}

// trySkip runs the lockstep skip protocol at an iteration start: poll
// all ranks (vote = this rank's steady state, payload = its last
// iteration delta, so unanimity implies cross-rank delta agreement), and
// on success fast-forward through the scanned stable window. Returns the
// number of iterations skipped (0: simulate this one). Every rank calls
// trySkip at the same iteration starts and returns the same value.
func (fp *fastPath) trySkip(c *mpisim.Comm, iter int) int {
	if !c.Poll(fp.steady(), fp.lastIterDelta) {
		return 0
	}
	n := fp.scan(iter)
	if n == 0 {
		return 0
	}
	entryClock := c.Clock()
	c.Advance(int64(n) * fp.lastIterDelta)
	c.CommNS += int64(n) * fp.lastCommDelta
	if fp.phaseNS != nil {
		for pi, d := range fp.lastDur {
			for k := 0; k < n; k++ {
				fp.phaseNS[pi] += d
			}
			fp.phaseCount[pi] += int64(n)
		}
	}
	fp.mgr.FastForward(n)
	fp.stats.AnalyticIters += int64(n)
	fp.stats.FastForwards++
	if fp.rc.Explain != nil {
		fp.rc.Explain.AddFastForward(iter, iter+n, c.Clock()-entryClock)
	}
	if fp.rc.Trace != nil {
		fp.rc.Trace.Span(obs.Virtual, fp.rc.Rank, "fastforward", "harness", entryClock, c.Clock(),
			map[string]any{"entry_iter": iter, "exit_iter": iter + n, "iters": n})
	}
	return n
}

// flush publishes rank 0's counters, which every rank shares, into the
// caller's sink and the process totals.
func (fp *fastPath) flush(sink *FastPathStats) {
	if fp.rc.Rank != 0 {
		return
	}
	sink.add(fp.stats)
	fpTotals.add(fp.stats)
}
