// Package app is the execution harness: it runs a workload's phase-
// structured iteration body on a world of simulated MPI ranks, under a
// pluggable data-placement Manager (the Unimem runtime, the X-Mem baseline,
// or the static DRAM-only / NVM-only configurations).
//
// The harness owns what the "application plus hardware" own in the paper:
// it allocates the target objects through the manager (unimem_malloc),
// executes phases by converting ground-truth access descriptors plus
// current placement into virtual time through the machine model, performs
// the MPI operations that delimit phases, and hands the manager measured
// durations and ground-truth traffic at each phase end (from which a
// manager may derive sampled counter profiles).
package app

import (
	"context"
	"fmt"

	"unimem/internal/counters"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/mpisim"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// RankCtx bundles the per-rank execution state handed to managers.
type RankCtx struct {
	Rank int
	Mach *machine.Machine
	Heap *memsys.Heap
	Comm *mpisim.Comm
	W    *workloads.Workload
	// Trace, when non-nil, receives span events from the harness and the
	// manager (phases, placement solves, migrations) against the rank's
	// virtual clock. Nil in normal runs; never affects simulated time.
	Trace *obs.Trace
	// Explain, when non-nil, receives decision-attribution records from
	// the manager (cost-model term breakdowns, migration audit entries,
	// re-profile triggers). Nil in normal runs; never affects simulated
	// time.
	Explain *obs.Explain

	// traffic is ExpandTraffic's per-rank output buffer, reused by every
	// phase of every iteration.
	traffic []counters.ChunkTraffic
}

// Manager is a data-placement policy driving one rank's heap. The harness
// calls it in this order:
//
//	Setup (allocate objects) -> LoopStart (unimem_start) ->
//	{PhaseBegin -> PhaseEnd}* per iteration -> LoopEnd (unimem_end).
//
// PhaseBegin may advance the rank's virtual clock (migration stall, queue
// checks); PhaseEnd receives the measured execution duration and the
// ground-truth traffic and may also advance the clock (profiling overhead).
// The traffic slice is the rank's reused ExpandTraffic buffer: it is valid
// only during the PhaseEnd call, so a manager that keeps it must copy it
// (as Recorder does).
type Manager interface {
	Name() string
	Setup(ctx *RankCtx) error
	LoopStart(ctx *RankCtx)
	PhaseBegin(ctx *RankCtx, name string, kind phase.Kind, mpiOp string)
	PhaseEnd(ctx *RankCtx, durNS float64, traffic []counters.ChunkTraffic)
	LoopEnd(ctx *RankCtx)
	// RuntimeOverheadNS returns the manager's accumulated "pure runtime
	// cost" (profiling, modeling, synchronization) for reporting.
	RuntimeOverheadNS(rank int) float64
}

// ManagerFactory builds one Manager per rank (managers hold per-rank state).
type ManagerFactory func(rank int) Manager

// Options configures a run.
type Options struct {
	Ranks        int
	RanksPerNode int // default 1 (the paper's experiments use 1 task/node)
	// ChunkSize overrides the default partition granularity.
	ChunkSize int64
	Seed      uint64
	// Trace, when non-nil, records a per-run span timeline (setup, each
	// iteration and phase on rank 0, manager decisions, migrations) for
	// Chrome trace-event export. Tracing never changes simulated time or
	// results; it is excluded from run-cache keys.
	Trace *obs.Trace
	// Explain, when non-nil, records rank 0's decision attribution: the
	// per-phase cost-model term breakdown behind every placement decision,
	// every migration with its trigger and realized cost, and the regret
	// baseline. Like Trace it never changes simulated time or results and
	// is excluded from run-cache keys.
	Explain *obs.Explain
	// ExactSim disables the analytic fast path: every iteration is
	// simulated event by event even through provably stable windows.
	// Results are byte-identical either way (the fast path only skips
	// windows it can extrapolate exactly), so like Trace/Explain this is
	// excluded from run-cache keys; it exists for differential testing
	// and benchmarking.
	ExactSim bool
	// FastPath, when non-nil, receives the run's fast-path statistics
	// (simulated vs analytically skipped iterations, fast-forward
	// episodes). Never affects results; excluded from run-cache keys.
	FastPath *FastPathStats
}

func (o *Options) fill(w *workloads.Workload) {
	if o.Ranks == 0 {
		o.Ranks = w.Ranks
	}
	if o.RanksPerNode == 0 {
		o.RanksPerNode = 1
	}
	if o.Seed == 0 {
		o.Seed = 0x5EED
	}
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank       int
	TimeNS     int64
	CommNS     int64
	OverheadNS float64
	Migrations memsys.MigrationStats
}

// Result is a whole run's outcome.
type Result struct {
	Workload string
	Manager  string
	Ranks    []RankResult
	// TimeNS is the application execution time: the slowest rank.
	TimeNS int64
	// PhaseNS is the per-phase average duration across ranks and
	// iterations (indexed by phase position), for variation studies.
	PhaseNS []float64
}

// TotalMigrations sums migration counts across ranks.
func (r *Result) TotalMigrations() int {
	n := 0
	for _, rr := range r.Ranks {
		n += rr.Migrations.Migrations
	}
	return n
}

// TotalBytesMigrated sums migrated bytes across ranks.
func (r *Result) TotalBytesMigrated() int64 {
	var n int64
	for _, rr := range r.Ranks {
		n += rr.Migrations.BytesMigrated
	}
	return n
}

// Run executes the workload on a fresh world under managers built by mf.
func Run(w *workloads.Workload, m *machine.Machine, opts Options, mf ManagerFactory) (*Result, error) {
	return RunCtx(context.Background(), w, m, opts, mf)
}

// RunCtx is Run bounded by a context: when ctx is cancelled mid-run the
// simulated world is aborted — the running rank stops at its next phase
// boundary or MPI call, then ranks parked in collectives or receives wake
// one at a time and unwind through the simulator's abort sentinel — and
// RunCtx returns ctx's error.
// Results of a cancelled run are never returned. A background context adds
// no overhead beyond one atomic load per phase.
func RunCtx(ctx context.Context, w *workloads.Workload, m *machine.Machine, opts Options, mf ManagerFactory) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.fill(w)
	world := mpisim.NewWorld(opts.Ranks, m)

	// A context cancellation aborts the world; stop deregisters the hook
	// on the normal path, and a background context registers nothing.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, world.Abort)
		defer stop()
	}

	// One set of tier coordination services per node (a NodeService per
	// shared tier; the slowest tier stays per-rank private).
	nNodes := (opts.Ranks + opts.RanksPerNode - 1) / opts.RanksPerNode
	nodes := make([]*memsys.NodeTiers, nNodes)
	for i := range nodes {
		nodes[i] = memsys.NewNodeTiers(m)
	}

	res := &Result{Workload: w.Name, Manager: "", Ranks: make([]RankResult, opts.Ranks)}
	res.PhaseNS = make([]float64, len(w.Phases))
	phaseCount := make([]int64, len(w.Phases))
	errs := make([]error, opts.Ranks)
	// The fast path bounds its stable windows by content epochs: listed
	// once per run and shared by every rank.
	epochs := w.ContentEpochs()

	world.Run(func(c *mpisim.Comm) {
		rank := c.Rank()
		heap := memsys.NewHeap(m, nodes[rank/opts.RanksPerNode], memsys.HeapOptions{
			DefaultChunkSize: opts.ChunkSize,
		})
		rc := &RankCtx{Rank: rank, Mach: m, Heap: heap, Comm: c, W: w}
		if rank == 0 {
			// Rank 0 is the traced (and explained) rank: one representative
			// timeline instead of P near-identical ones.
			rc.Trace = opts.Trace
			rc.Explain = opts.Explain
		}
		mgr := mf(rank)
		if rank == 0 {
			res.Manager = mgr.Name()
		}
		setupStart := c.Clock()
		if err := mgr.Setup(rc); err != nil {
			errs[rank] = fmt.Errorf("rank %d setup: %w", rank, err)
			return
		}
		if rc.Trace != nil {
			rc.Trace.Span(obs.Virtual, rank, "setup", "harness", setupStart, c.Clock(),
				map[string]any{"manager": mgr.Name(), "workload": w.Name})
		}
		mgr.LoopStart(rc)
		// The fast-path tracker is nil when the run opts out or the manager
		// is not a FastPather — both rank-independent, so either every rank
		// polls at each eligible iteration start or none does.
		fp := newFastPath(rc, mgr, &opts, epochs, res.PhaseNS, phaseCount)
		for iter := 0; iter < w.Iterations; {
			if fp != nil && iter >= fastPathMinIter {
				if n := fp.trySkip(c, iter); n > 0 {
					iter += n
					continue
				}
			}
			iterStart := c.Clock()
			if fp != nil {
				fp.beginIter(c)
			}
			for pi := range w.Phases {
				// Ranks notice the abort here or mid-operation, where
				// the simulator unwinds them with its abort sentinel.
				if world.Aborted() {
					return
				}
				ph := &w.Phases[pi]
				beginAt := c.Clock()
				mgr.PhaseBegin(rc, ph.Name, ph.Kind, ph.Comm.String())

				start := c.Clock()
				scale := ph.RankScale(rank, opts.Ranks)
				if fp != nil {
					fp.beforeTraffic(pi)
				}
				traffic, serviceNS := ExpandTraffic(rc, ph.Refs(iter), scale)
				c.Advance(int64(serviceNS))
				execComm(c, ph, iter)
				c.Advance(int64(m.ComputeTimeNS(ph.Flops * scale)))
				dur := float64(c.Clock() - start)

				if rank == 0 {
					res.PhaseNS[pi] += dur
					phaseCount[pi]++
				}
				mgr.PhaseEnd(rc, dur, traffic)
				if fp != nil {
					fp.lastDur[pi] = dur
				}
				if rc.Trace != nil {
					// The span covers PhaseBegin through PhaseEnd, so
					// manager-charged stalls and profiling overhead show
					// up inside the phase they were charged to.
					rc.Trace.Span(obs.Virtual, rank, ph.Name, "phase", beginAt, c.Clock(),
						map[string]any{"iter": iter, "kind": ph.Kind.String(), "comm": ph.Comm.String()})
				}
			}
			if fp != nil {
				fp.endIter(c, iter)
			}
			if rc.Trace != nil {
				rc.Trace.Span(obs.Virtual, rank, fmt.Sprintf("iteration %d", iter), "iteration",
					iterStart, c.Clock(), nil)
			}
			iter++
		}
		mgr.LoopEnd(rc)
		if fp != nil {
			fp.flush(opts.FastPath)
		}
		res.Ranks[rank] = RankResult{
			Rank:       rank,
			TimeNS:     c.Clock(),
			CommNS:     c.CommNS,
			OverheadNS: mgr.RuntimeOverheadNS(rank),
			Migrations: heap.StatsSnapshot(),
		}
	})
	if world.Aborted() {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, rr := range res.Ranks {
		if rr.TimeNS > res.TimeNS {
			res.TimeNS = rr.TimeNS
		}
	}
	for pi := range res.PhaseNS {
		if phaseCount[pi] > 0 {
			res.PhaseNS[pi] /= float64(phaseCount[pi])
		}
	}
	return res, nil
}

// execComm performs the phase's MPI operation on the rank's communicator,
// at the iteration's scheduled communication volume.
func execComm(c *mpisim.Comm, ph *workloads.Phase, iter int) {
	bytes := ph.CommBytesAt(iter)
	switch ph.Comm {
	case workloads.CommNone:
	case workloads.CommAllreduce:
		c.Allreduce(bytes)
	case workloads.CommHalo:
		p := c.Size()
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		c.SendRecv(right, left, 7001, bytes, nil)
		c.SendRecv(left, right, 7002, bytes, nil)
	case workloads.CommAlltoall:
		c.Alltoall(bytes)
	case workloads.CommBcast:
		c.Bcast(bytes)
	case workloads.CommBarrier:
		c.Barrier()
	case workloads.CommWaitHalo:
		// Model the completion wait of a previously posted non-blocking
		// exchange as a synchronizing halo of the same size.
		p := c.Size()
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		reqOut := c.Isend(right, 7003, bytes, nil)
		reqIn := c.Irecv(left, 7003)
		reqOut.Wait()
		reqIn.Wait()
	}
}

// ExpandTraffic converts a phase's per-object access descriptors into
// per-chunk ground-truth traffic under the heap's current placement, and
// returns the total memory service time. A scale other than 1 (a
// rank-imbalanced phase) first scales each descriptor's accesses, floored
// at one access like the workload builders do. Accesses distribute across
// an object's chunks proportionally to chunk size (uniform within the
// object, which is the paper's assumption when it partitions 1-D arrays
// with regular references).
//
// The returned slice is the rank's reused buffer: the next call on the
// same RankCtx overwrites it.
func ExpandTraffic(ctx *RankCtx, refs []phase.Ref, scale float64) ([]counters.ChunkTraffic, float64) {
	out := ctx.traffic[:0]
	var totalNS float64
	for _, r := range refs {
		obj := ctx.Heap.Lookup(r.Object)
		if obj == nil {
			panic(fmt.Sprintf("app: phase references unknown object %q", r.Object))
		}
		if scale != 1 {
			r.Accesses = max(int64(float64(r.Accesses)*scale), 1)
		}
		for _, ch := range obj.Chunks {
			acc := r.Accesses
			if len(obj.Chunks) > 1 {
				acc = int64(float64(r.Accesses) * float64(ch.Size) / float64(obj.Size))
			}
			if acc <= 0 {
				continue
			}
			tier := ctx.Heap.TierOf(ch)
			svc := ctx.Mach.MemTimeNS(tier, acc, r.Pattern, r.ReadFrac)
			totalNS += svc
			out = append(out, counters.ChunkTraffic{
				ID:         ch.ID,
				Chunk:      ch.Name(),
				Object:     obj.Name,
				ChunkIndex: ch.Index,
				Accesses:   acc,
				ServiceNS:  svc,
				ReadFrac:   r.ReadFrac,
				Pattern:    r.Pattern,
			})
		}
	}
	ctx.traffic = out
	return out, totalNS
}
