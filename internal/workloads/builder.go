package workloads

import (
	"fmt"

	"unimem/internal/machine"
	"unimem/internal/phase"
)

// llcBytes is the assumed per-rank last-level-cache capacity used to
// attenuate post-cache traffic: the smaller an object relative to the LLC,
// the larger the fraction of its references that hit cache. Validated
// against the cachesim package in tests.
const llcBytes = 20 << 20

// atten returns the fraction of references to an object of the given size
// that reach main memory: near 1 for objects far larger than the LLC,
// floored at 5% (compulsory/conflict misses) for cache-resident objects.
// This is the "caching effects" dependence on problem size and scale that
// the paper's strong-scaling study calls out.
func atten(size int64) float64 {
	if size <= 0 {
		return 0
	}
	f := float64(size-llcBytes) / float64(size)
	if f < 0.05 {
		return 0.05
	}
	return f
}

// builder assembles a Workload with class- and scale-aware sizing.
type builder struct {
	w *Workload
	// scale multiplies sizes and reference counts: classScale x (4/ranks),
	// so Class C at the paper's 4-rank baseline is scale 1 and strong
	// scaling shrinks per-rank footprints.
	scale float64
}

// classScale maps an NPB class letter to a size multiplier relative to
// Class C.
func classScale(class string) float64 {
	switch class {
	case "A":
		return 0.25
	case "B":
		return 0.5
	case "C":
		return 1
	case "D":
		return 3
	default:
		panic(fmt.Sprintf("workloads: unknown class %q", class))
	}
}

func newBench(name, class string, ranks, iters int, footprintFrac float64) *builder {
	if ranks <= 0 {
		ranks = 4
	}
	return &builder{
		w: &Workload{
			Name:          name,
			Class:         class,
			Ranks:         ranks,
			Iterations:    iters,
			FootprintFrac: footprintFrac,
		},
		scale: classScale(class) * 4.0 / float64(ranks),
	}
}

// obj registers a target object sized mb MiB at the baseline scale.
func (b *builder) obj(name string, mb float64, partitionable bool) {
	b.w.Objects = append(b.w.Objects, ObjectSpec{
		Name:          name,
		Size:          MiB(mb * b.scale),
		Partitionable: partitionable,
	})
}

func (b *builder) size(name string) int64 {
	o := b.w.Object(name)
	if o == nil {
		panic(fmt.Sprintf("workloads: %s: ref to unknown object %q", b.w.Name, name))
	}
	return o.Size
}

// rs is a streaming sweep: passes full passes over the object, post-cache
// traffic attenuated by object size.
func (b *builder) rs(name string, passes, writeFrac float64) phase.Ref {
	size := b.size(name)
	acc := int64(float64(size/machine.CacheLineBytes) * passes * atten(size))
	return ref(name, acc, writeFrac, machine.Stream)
}

// rsFull is a streaming sweep with no cache attenuation: communication
// buffers are packed with fresh data every time and never enjoy reuse.
func (b *builder) rsFull(name string, passes, writeFrac float64) phase.Ref {
	size := b.size(name)
	acc := int64(float64(size/machine.CacheLineBytes) * passes)
	return ref(name, acc, writeFrac, machine.Stream)
}

// rt is a stencil sweep (near-neighbour, high but not perfect MLP).
func (b *builder) rt(name string, passes, writeFrac float64) phase.Ref {
	size := b.size(name)
	acc := int64(float64(size/machine.CacheLineBytes) * passes * atten(size))
	return ref(name, acc, writeFrac, machine.Stencil)
}

// rr is irregular random access: megaRefs million references (at baseline
// scale) with cache attenuation by object size.
func (b *builder) rr(name string, megaRefs, writeFrac float64) phase.Ref {
	size := b.size(name)
	acc := int64(megaRefs * 1e6 * b.scale * atten(size))
	return ref(name, acc, writeFrac, machine.Random)
}

// rp is dependent pointer-chasing access.
func (b *builder) rp(name string, megaRefs, writeFrac float64) phase.Ref {
	size := b.size(name)
	acc := int64(megaRefs * 1e6 * b.scale * atten(size))
	return ref(name, acc, writeFrac, machine.PointerChase)
}

func ref(name string, acc int64, writeFrac float64, p machine.Pattern) phase.Ref {
	if acc < 1 {
		acc = 1
	}
	return phase.Ref{Object: name, Accesses: acc, ReadFrac: 1 - writeFrac, Pattern: p}
}

// phase appends an iteration-invariant phase. commKB is the per-rank (or
// per-pair, for all-to-all) message size in KiB at baseline scale; flopsM
// the per-rank compute in millions of flops at baseline scale.
func (b *builder) phase(name string, comm CommKind, commKB, flopsM float64, refs ...phase.Ref) {
	b.phaseEpochs(name, comm, commKB, flopsM, Static(refs...))
}

// phaseEpochs appends a phase whose traffic may vary with the iteration.
func (b *builder) phaseEpochs(name string, comm CommKind, commKB, flopsM float64, epochs []RefEpoch) {
	kind := phase.Compute
	if comm != CommNone {
		kind = phase.Comm
	}
	b.w.Phases = append(b.w.Phases, Phase{
		Name:      name,
		Kind:      kind,
		Comm:      comm,
		CommBytes: int64(commKB * 1024 * b.scale),
		Flops:     flopsM * 1e6 * b.scale,
		Epochs:    epochs,
	})
}

// finish computes the static reference-count hints (what the paper's
// compiler analysis derives before the main loop) for every object except
// those named in noHint — objects whose reference counts depend on
// information unavailable before the loop (e.g. convergence-dependent
// iteration counts). It then returns the workload.
func (b *builder) finish(noHint ...string) *Workload {
	skip := make(map[string]bool, len(noHint))
	for _, n := range noHint {
		skip[n] = true
	}
	hints := make(map[string]float64)
	for _, ph := range b.w.Phases {
		for _, r := range ph.Refs(0) {
			hints[r.Object] += float64(r.Accesses)
		}
	}
	for i := range b.w.Objects {
		if !skip[b.w.Objects[i].Name] {
			b.w.Objects[i].RefHint = hints[b.w.Objects[i].Name]
		}
	}
	return b.w
}
