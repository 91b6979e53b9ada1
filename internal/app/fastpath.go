package app

import (
	"slices"
	"sync/atomic"

	"unimem/internal/mpisim"
	"unimem/internal/obs"
)

// This file is the harness half of the analytic fast path: steady-state
// fast-forward. Each rank tracks how many consecutive simulated
// iterations ran in the same content epoch (the workload's phases did
// identical work) and priced all their traffic under the same heap
// placement generation (no chunk changed tier), which together fix every
// phase's traffic exactly.
// When every rank votes — in lockstep, through the simulator's zero-cost
// Poll rendezvous — that its manager is quiescent, its streak is at least
// K iterations long and its last two iteration clock deltas are equal,
// and all ranks' deltas agree, the rest of the current content epoch
// (the epochs are shared by every rank) is skipped: clocks, CommNS,
// per-phase means and manager bookkeeping are advanced analytically in
// one step. Soundness: at a
// unanimous iteration boundary every inbox is empty and the run heap is
// quiescent, so with equal per-rank advances the relative clock offsets
// — the only cross-rank state — are preserved, and a skipped iteration
// would have replayed the previous one exactly, event for event.

// Fast-path engagement thresholds: polls begin once enough iterations
// have completed to compare two consecutive clock deltas, and a window
// counts as stable once this many consecutive iterations have presented
// the same streak key.
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

	// Last simulated iteration's per-position measured durations — the
	// extrapolation template for skipped iterations.
	lastDur []float64
	// The streak: the last simulated iteration's key and how many
	// consecutive simulated iterations presented it; firstGen and lastGen
	// are the placement generations the current iteration's first and last
	// phases priced their traffic under.
	lastKey           streakKey
	streak            int
	firstGen, lastGen uint64
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

// streakKey identifies what fixes an iteration's traffic: the index of
// the content epoch it lies in and the heap placement generation its
// phases priced their traffic under.
type streakKey struct {
	epoch int
	gen   uint64
}

// newFastPath returns the rank's tracker, or nil when the fast path is
// off for this run. epochs must list every iteration at which some
// phase's content changes (Workload.ContentEpochs).
func newFastPath(rc *RankCtx, mgr Manager, opts *Options, epochs []int, phaseNS []float64, phaseCount []int64) *fastPath {
	if opts.ExactSim {
		return nil
	}
	fpm, ok := mgr.(FastPather)
	if !ok {
		return nil
	}
	fp := &fastPath{
		rc:      rc,
		mgr:     fpm,
		epochs:  epochs,
		lastDur: make([]float64, len(rc.W.Phases)),
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

// beforeTraffic records the placement generation phase pi's traffic is
// about to be priced under. Generations only grow, so the first and last
// phases' readings bracket every phase's.
func (fp *fastPath) beforeTraffic(pi int) {
	g := fp.rc.Heap.Generation()
	if pi == 0 {
		fp.firstGen = g
	}
	fp.lastGen = g
}

// endIter closes simulated iteration iter: it rolls the delta history and
// advances the streak. A tier change between the iteration's first and
// last traffic pricing zeroes the streak (its phases ran under two
// placements); otherwise the streak grows when the key repeats the last
// iteration's and restarts at 1 when it does not.
func (fp *fastPath) endIter(c *mpisim.Comm, iter int) {
	fp.prevIterDelta, fp.prevCommDelta = fp.lastIterDelta, fp.lastCommDelta
	fp.lastIterDelta = c.Clock() - fp.iterStartClock
	fp.lastCommDelta = c.CommNS - fp.iterStartComm
	fp.simIters++
	fp.stats.SimulatedIters++

	key := streakKey{epoch: fp.epochOf(iter), gen: fp.lastGen}
	switch {
	case fp.lastGen != fp.firstGen:
		fp.streak = 0
	case key == fp.lastKey:
		fp.streak++
	default:
		fp.streak = 1
	}
	fp.lastKey = key
}

// epochOf returns the index of the content epoch iter lies in: the number
// of epochs at or before it. epochs[epochOf(iter)], when present, is the
// next epoch after iter.
func (fp *fastPath) epochOf(iter int) int {
	i, _ := slices.BinarySearch(fp.epochs, iter+1)
	return i
}

// steady is this rank's fast-forward vote: the manager has been
// quiescent since before the template iteration began, K consecutive
// iterations have presented the same streak key, and the last two
// iteration deltas are equal — the rank's execution has provably settled
// into a fixed point.
func (fp *fastPath) steady() bool {
	return fp.simIters >= fastPathMinIter &&
		fp.steadyIters >= 2 &&
		fp.mgr.SteadyState() &&
		fp.streak >= fastPathStableIters &&
		fp.lastIterDelta > 0 &&
		fp.lastIterDelta == fp.prevIterDelta &&
		fp.lastCommDelta == fp.prevCommDelta
}

// scan returns how many consecutive iterations starting at iter present
// exactly the last simulated iteration's content: 0 unless iter lies in
// the same content epoch, else up to the next epoch. It reads only the
// rank-independent epochs, so every rank computes the same bound without
// further coordination.
func (fp *fastPath) scan(iter int) int {
	e := fp.epochOf(iter)
	if e != fp.lastKey.epoch {
		return 0
	}
	end := fp.rc.W.Iterations
	if e < len(fp.epochs) {
		end = min(end, fp.epochs[e])
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
