// Package workloads defines the benchmark applications of the paper's
// evaluation — the six NAS Parallel Benchmarks (CG, FT, BT, LU, SP, MG),
// the Nek5000 eddy production proxy, and the STREAM / pointer-chasing
// calibration microbenchmarks — as phase-structured iterative MPI programs
// with the paper's Table 3 target-object inventories.
//
// A workload describes, per phase and per iteration, the ground-truth
// post-LLC traffic each target object generates on one rank (count,
// read/write mix, access pattern). The execution harness turns those
// descriptors into virtual time through the machine model and into sampled
// counter profiles through the counters emulation; the Unimem runtime sees
// only the latter, exactly as it would on hardware.
package workloads

import (
	"cmp"
	"slices"

	"unimem/internal/machine"
	"unimem/internal/phase"
)

// ObjectSpec declares one target data object (paper Table 3).
type ObjectSpec struct {
	Name string
	// Size is the per-rank simulated size in bytes.
	Size int64
	// Partitionable marks 1-D arrays with regular references that the
	// runtime's conservative chunking rule may split (§3.2).
	Partitionable bool
	// RefHint is the static per-iteration reference-count estimate the
	// compiler analysis would produce for initial placement; 0 means the
	// count is not statically known before the main loop.
	RefHint float64
}

// CommKind enumerates the MPI operations the workloads use.
type CommKind int

const (
	// CommNone marks a pure computation phase.
	CommNone CommKind = iota
	// CommAllreduce is an allreduce of Phase.CommBytes per rank.
	CommAllreduce
	// CommHalo is a ring halo exchange (SendRecv with both neighbours) of
	// Phase.CommBytes per direction.
	CommHalo
	// CommAlltoall is a personalized all-to-all of Phase.CommBytes per
	// rank pair.
	CommAlltoall
	// CommBcast broadcasts Phase.CommBytes.
	CommBcast
	// CommBarrier is a barrier.
	CommBarrier
	// CommWaitHalo is the completion (MPI_Wait) of a previously posted
	// non-blocking halo exchange; per §2.1 the Isend/Irecv themselves are
	// merged into the preceding phase and only the Wait is a phase.
	CommWaitHalo
)

// String returns the MPI operation name used for phase identification.
func (k CommKind) String() string {
	switch k {
	case CommNone:
		return ""
	case CommAllreduce:
		return "Allreduce"
	case CommHalo:
		return "SendRecv"
	case CommAlltoall:
		return "Alltoall"
	case CommBcast:
		return "Bcast"
	case CommBarrier:
		return "Barrier"
	case CommWaitHalo:
		return "Wait"
	default:
		return "?"
	}
}

// ScaleWindow is one segment of a piecewise per-iteration schedule: for
// iterations in [From, To) the scheduled quantity is multiplied by Scale.
// To <= 0 means "until the end of the run". Windows are matched first-hit
// in slice order; iterations outside every window use scale 1.
type ScaleWindow struct {
	From  int     `json:"from"`
	To    int     `json:"to,omitempty"`
	Scale float64 `json:"scale"`
}

// Contains reports whether the window covers the iteration.
func (w ScaleWindow) Contains(iter int) bool {
	return iter >= w.From && (w.To <= 0 || iter < w.To)
}

// Phase describes one phase of the iteration body.
type Phase struct {
	Name string
	Kind phase.Kind
	// Comm and CommBytes describe the MPI operation of a communication
	// phase (CommNone for computation phases).
	Comm      CommKind
	CommBytes int64
	// CommSchedule optionally scales CommBytes per iteration (bursty
	// communication); nil means the constant CommBytes every iteration.
	CommSchedule []ScaleWindow
	// Flops is the per-rank floating-point work of the phase.
	Flops float64
	// RankSkew imbalances the phase across ranks: rank r's traffic and
	// compute are scaled by a linear ramp from 1-RankSkew/2 (rank 0) to
	// 1+RankSkew/2 (last rank), mean 1 across the world. 0 is balanced;
	// valid range is [0, 2).
	RankSkew float64
	// Epochs is the phase's per-rank ground-truth main-memory traffic as
	// a change-point list: sorted by From, the first at 0, no two
	// neighbours with equal Refs (AppendEpoch keeps that form). Most
	// workloads hold one entry; Nek5000's pattern drift holds one per
	// drift period. No epochs means no traffic.
	Epochs []RefEpoch
}

// RefEpoch is one stable stretch of a phase's traffic: from iteration
// From until the next epoch's From (or the end of the run), the phase
// presents Refs every iteration.
type RefEpoch struct {
	From int
	Refs []phase.Ref
}

// Static returns the epoch list of an iteration-invariant phase.
func Static(refs ...phase.Ref) []RefEpoch {
	return []RefEpoch{{From: 0, Refs: refs}}
}

// AppendEpoch appends the stretch starting at from (past the last
// epoch's From) to es, or returns es unchanged when refs equal the last
// stretch's, so equal neighbours merge. It stores a copy of refs, so the
// caller may reuse its buffer.
func AppendEpoch(es []RefEpoch, from int, refs []phase.Ref) []RefEpoch {
	if n := len(es); n > 0 && slices.Equal(es[n-1].Refs, refs) {
		return es
	}
	return append(es, RefEpoch{From: from, Refs: slices.Clone(refs)})
}

// Refs returns the phase's reference list for the given iteration: the
// list of the last epoch starting at or before it (the first epoch's for
// negative iterations). The result is shared; callers must not modify it.
func (p *Phase) Refs(iter int) []phase.Ref {
	if len(p.Epochs) == 0 {
		return nil
	}
	i, found := slices.BinarySearchFunc(p.Epochs, iter, func(e RefEpoch, it int) int {
		return cmp.Compare(e.From, it)
	})
	if !found && i > 0 {
		i--
	}
	return p.Epochs[i].Refs
}

// CommBytesAt returns the phase's communication volume for the given
// iteration, applying the first matching CommSchedule window.
func (p *Phase) CommBytesAt(iter int) int64 {
	for _, w := range p.CommSchedule {
		if w.Contains(iter) {
			return int64(float64(p.CommBytes) * w.Scale)
		}
	}
	return p.CommBytes
}

// RankScale returns the phase's load-imbalance factor for one rank of a
// world of the given size.
func (p *Phase) RankScale(rank, ranks int) float64 {
	if p.RankSkew == 0 || ranks <= 1 {
		return 1
	}
	return 1 + p.RankSkew*(float64(rank)/float64(ranks-1)-0.5)
}

// Workload is a phase-structured iterative MPI application.
type Workload struct {
	Name  string
	Class string
	// Ranks the workload was sized for (object sizes are per-rank and
	// already account for domain decomposition at this scale).
	Ranks      int
	Iterations int
	Objects    []ObjectSpec
	Phases     []Phase
	// FootprintFrac is the fraction of total application memory footprint
	// covered by the target objects (paper Table 3 last column).
	FootprintFrac float64
	// SpecDigest is a content hash of the declarative scenario spec this
	// workload was compiled from (empty for workloads built in Go). The
	// experiment run cache keys on it, so two scenarios that share a name
	// but differ anywhere in their spec never share cached results.
	SpecDigest string
}

// ContentEpochs returns, in increasing order, every iteration in
// [1, Iterations) at which some phase's rank-independent content — its
// reference list or scheduled communication volume — differs from the
// previous iteration's: the phases' epoch starts plus the CommSchedule
// edges where CommBytesAt changes. Kind, MPI operation, flops and skew
// are fixed per phase, so they never start an epoch. Two iterations with
// no content epoch in (i, j] present identical content, so the fast path
// bounds each stable window with one binary search.
func (w *Workload) ContentEpochs() []int {
	var out []int
	for pi := range w.Phases {
		p := &w.Phases[pi]
		for _, e := range p.Epochs {
			if e.From > 0 && e.From < w.Iterations {
				out = append(out, e.From)
			}
		}
		for _, sw := range p.CommSchedule {
			for _, at := range [2]int{sw.From, sw.To} {
				if at > 0 && at < w.Iterations && p.CommBytesAt(at) != p.CommBytesAt(at-1) {
					out = append(out, at)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Object returns the spec with the given name, or nil.
func (w *Workload) Object(name string) *ObjectSpec {
	for i := range w.Objects {
		if w.Objects[i].Name == name {
			return &w.Objects[i]
		}
	}
	return nil
}

// TotalObjectBytes returns the summed per-rank size of all target objects.
func (w *Workload) TotalObjectBytes() int64 {
	var n int64
	for _, o := range w.Objects {
		n += o.Size
	}
	return n
}

// MiB converts mebibytes to bytes.
func MiB(n float64) int64 { return int64(n * (1 << 20)) }

// accStream returns the post-LLC access count for s streaming passes over
// an object of size bytes: every cache line misses once per pass.
func accStream(size int64, passes float64) int64 {
	return int64(float64(size/machine.CacheLineBytes) * passes)
}

// accSparse returns the post-LLC access count for n irregular references
// with the given miss ratio.
func accSparse(n float64, missRatio float64) int64 {
	return int64(n * missRatio)
}
