package unimem

import (
	"fmt"

	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// CommOp names the MPI operation of a communication phase.
type CommOp = workloads.CommKind

// Communication operations for AppBuilder.CommPhase.
const (
	Allreduce = workloads.CommAllreduce
	Halo      = workloads.CommHalo
	Alltoall  = workloads.CommAlltoall
	Bcast     = workloads.CommBcast
	Barrier   = workloads.CommBarrier
	WaitHalo  = workloads.CommWaitHalo
)

// AppBuilder assembles a custom iterative application for the runtime: the
// target data objects (unimem_malloc) and the phase structure of its main
// computation loop. It is the public counterpart of the generators behind
// the built-in NPB workloads.
type AppBuilder struct {
	w   *workloads.Workload
	fns []func(iter int) []Ref // per phase; see phase
}

// NewApp starts an application description: world size ranks, and iters
// iterations of the main computation loop.
func NewApp(name string, ranks, iters int) *AppBuilder {
	if ranks <= 0 || iters <= 0 {
		panic("unimem: ranks and iterations must be positive")
	}
	return &AppBuilder{w: &workloads.Workload{
		Name: name, Class: "custom", Ranks: ranks, Iterations: iters,
		FootprintFrac: 1,
	}}
}

// ObjectOption configures a target object.
type ObjectOption func(*workloads.ObjectSpec)

// WithHint attaches the static per-iteration reference-count estimate the
// paper's compiler analysis would derive; objects with hints participate
// in initial data placement.
func WithHint(refs float64) ObjectOption {
	return func(o *workloads.ObjectSpec) { o.RefHint = refs }
}

// Partitionable marks a regular one-dimensional array that the runtime's
// conservative chunking rule may split (§3.2).
func Partitionable() ObjectOption {
	return func(o *workloads.ObjectSpec) { o.Partitionable = true }
}

// Object registers a target data object of size bytes (per rank).
func (b *AppBuilder) Object(name string, size int64, opts ...ObjectOption) *AppBuilder {
	if b.w.Object(name) != nil {
		panic(fmt.Sprintf("unimem: duplicate object %q", name))
	}
	spec := workloads.ObjectSpec{Name: name, Size: size}
	for _, o := range opts {
		o(&spec)
	}
	b.w.Objects = append(b.w.Objects, spec)
	return b
}

// Stream declares a bandwidth-bound streaming reference: accesses
// post-cache main-memory accesses, writeFrac of them writes.
func Stream(object string, accesses int64, writeFrac float64) Ref {
	return mkRef(object, accesses, writeFrac, PatternStream)
}

// Stencil declares a near-neighbour reference with high concurrency.
func Stencil(object string, accesses int64, writeFrac float64) Ref {
	return mkRef(object, accesses, writeFrac, PatternStencil)
}

// Random declares irregular mid-concurrency access (sensitive to both
// bandwidth and latency).
func Random(object string, accesses int64, writeFrac float64) Ref {
	return mkRef(object, accesses, writeFrac, PatternRandom)
}

// Chase declares dependent pointer-chasing access (latency-bound).
func Chase(object string, accesses int64, writeFrac float64) Ref {
	return mkRef(object, accesses, writeFrac, PatternPointerChase)
}

func mkRef(object string, accesses int64, writeFrac float64, p Pattern) Ref {
	if accesses < 1 {
		accesses = 1
	}
	return Ref{Object: object, Accesses: accesses, ReadFrac: 1 - writeFrac, Pattern: p}
}

// ComputePhase appends a computation phase with the given flop count and
// iteration-invariant traffic.
func (b *AppBuilder) ComputePhase(name string, flops float64, refs ...Ref) *AppBuilder {
	return b.phase(workloads.Phase{
		Name: name, Kind: phase.Compute, Flops: flops, Epochs: workloads.Static(refs...),
	}, nil)
}

// ComputePhaseFn appends a computation phase whose traffic varies with the
// iteration number (workload drift, like Nek5000's Krylov sets). Build
// calls refs once per iteration and keeps each stretch of equal lists
// once, so refs may reuse its result buffer.
func (b *AppBuilder) ComputePhaseFn(name string, flops float64, refs func(iter int) []Ref) *AppBuilder {
	return b.phase(workloads.Phase{Name: name, Kind: phase.Compute, Flops: flops}, refs)
}

// CommPhase appends an MPI communication phase moving bytes per rank (or
// per pair for Alltoall), with optional buffer traffic.
func (b *AppBuilder) CommPhase(name string, op CommOp, bytes int64, flops float64, refs ...Ref) *AppBuilder {
	if op == workloads.CommNone {
		panic("unimem: CommPhase requires a communication op; use ComputePhase")
	}
	return b.phase(workloads.Phase{
		Name: name, Kind: phase.Comm, Comm: op, CommBytes: bytes, Flops: flops,
		Epochs: workloads.Static(refs...),
	}, nil)
}

// phase appends p, with the traffic function Build evaluates for it (nil:
// p's epochs are final).
func (b *AppBuilder) phase(p workloads.Phase, fn func(int) []Ref) *AppBuilder {
	b.w.Phases = append(b.w.Phases, p)
	b.fns = append(b.fns, fn)
	return b
}

// Build evaluates the iteration-varying phases' traffic, validates and
// returns the workload.
func (b *AppBuilder) Build() *Workload {
	if len(b.w.Phases) == 0 {
		panic("unimem: application has no phases")
	}
	for pi := range b.w.Phases {
		ph := &b.w.Phases[pi]
		if fn := b.fns[pi]; fn != nil {
			ph.Epochs = nil
			for iter := 0; iter < b.w.Iterations; iter++ {
				ph.Epochs = workloads.AppendEpoch(ph.Epochs, iter, fn(iter))
			}
		}
		for _, e := range ph.Epochs {
			for _, r := range e.Refs {
				if b.w.Object(r.Object) == nil {
					panic(fmt.Sprintf("unimem: phase %q references unknown object %q", ph.Name, r.Object))
				}
			}
		}
	}
	return b.w
}
