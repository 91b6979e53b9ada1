// Package phase implements Unimem's phase abstraction (§2.1): the
// decomposition of an iterative MPI application into computation phases
// delineated by MPI operations and communication phases that are MPI
// operations, identified transparently through the PMPI interposition
// counter, plus the per-phase bookkeeping the runtime needs — profiles,
// reference sets, and the inter-phase dependence analysis that bounds how
// early a proactive migration may be triggered (Fig. 5).
package phase

import (
	"fmt"

	"unimem/internal/counters"
	"unimem/internal/machine"
)

// Kind distinguishes computation phases from MPI communication phases.
type Kind int

const (
	// Compute is code between MPI operations.
	Compute Kind = iota
	// Comm is an MPI collective, blocking point-to-point or completion op.
	Comm
)

// String returns "compute" or "comm".
func (k Kind) String() string {
	if k == Compute {
		return "compute"
	}
	return "comm"
}

// Ref describes one data object's main-memory traffic in one execution of a
// phase on one rank (ground truth from the workload; the runtime only ever
// sees its sampled image).
type Ref struct {
	Object   string
	Accesses int64
	ReadFrac float64
	Pattern  machine.Pattern
}

// Info is the runtime's record of one phase within the iteration structure.
type Info struct {
	ID   int
	Name string
	Kind Kind
	// MPIOp is the delimiting MPI operation observed through PMPI (empty
	// for compute phases).
	MPIOp string

	// Profile is the most recent sampled profile of the phase (nil until
	// the phase has been profiled).
	Profile *counters.PhaseSample
	// ProfiledNS is the duration observed while profiling.
	ProfiledNS float64
	// LastNS is the most recent measured duration (updated every
	// iteration; the variation monitor compares it against DecisionNS).
	LastNS float64
	// DecisionNS is the duration measured in the iteration whose profile
	// produced the current placement decision.
	DecisionNS float64

	// refs[id] reports whether the profile observed traffic for the chunk
	// with that ID (memsys.Chunk.ID).
	refs []bool
}

// References reports whether the phase's profile observed traffic to the
// chunk with the given ID.
func (p *Info) References(chunk int) bool { return chunk < len(p.refs) && p.refs[chunk] }

// SetProfile installs a sampled profile and rebuilds the reference set.
func (p *Info) SetProfile(ps *counters.PhaseSample) {
	p.Profile = ps
	p.ProfiledNS = ps.DurNS
	clear(p.refs)
	for _, o := range ps.Objects {
		if o.ID >= len(p.refs) {
			p.refs = append(p.refs, make([]bool, o.ID+1-len(p.refs))...)
		}
		p.refs[o.ID] = true
	}
}

// Registry tracks the iteration's phase structure. The first iteration
// after unimem_start defines the phase list; subsequent iterations are
// matched positionally, with iteration boundaries detected when the first
// phase's call site recurs — the PMPI global-counter scheme of Fig. 7.
type Registry struct {
	phases []*Info
	// pos is the index of the currently open phase (-1 between phases).
	pos int
	// posClosed is the index of the most recently closed phase.
	posClosed int
	// iter counts completed iterations since Start.
	iter   int
	sealed bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pos: -1, posClosed: -1}
}

// Phases returns the phase list in iteration order.
func (r *Registry) Phases() []*Info { return r.phases }

// Len returns the number of phases per iteration.
func (r *Registry) Len() int { return len(r.phases) }

// Iter returns the number of completed iterations.
func (r *Registry) Iter() int { return r.iter }

// Sealed reports whether the first iteration completed, fixing the
// structure.
func (r *Registry) Sealed() bool { return r.sealed }

// Begin records the start of the next phase. name identifies the call
// site; during the first iteration it registers new phases, afterwards it
// matches them positionally and validates that the structure is stable
// (Unimem targets applications with an iterative structure, §2.1). It
// returns the phase record and whether this Begin started a new iteration.
func (r *Registry) Begin(name string, kind Kind, mpiOp string) (*Info, bool) {
	if r.pos != -1 {
		panic(fmt.Sprintf("phase: Begin(%q) while phase %d is open", name, r.pos))
	}
	if !r.sealed {
		if len(r.phases) > 0 && name == r.phases[0].Name {
			// The first call site recurred: iteration 1 is complete and
			// the structure is now fixed.
			r.sealed = true
			r.iter = 1
		} else {
			p := &Info{ID: len(r.phases), Name: name, Kind: kind, MPIOp: mpiOp}
			r.phases = append(r.phases, p)
			r.pos = p.ID
			return p, len(r.phases) == 1
		}
	}
	next := (r.posClosed + 1) % len(r.phases)
	p := r.phases[next]
	if p.Name != name {
		panic(fmt.Sprintf("phase: structure changed: expected %q at position %d, got %q", p.Name, next, name))
	}
	r.pos = next
	return p, next == 0
}

// End records the end of the currently open phase with its measured
// duration and returns its record.
func (r *Registry) End(durNS float64) *Info {
	if r.pos == -1 {
		panic("phase: End without Begin")
	}
	p := r.phases[r.pos]
	p.LastNS = durNS
	if r.sealed && r.pos == len(r.phases)-1 {
		r.iter++
	}
	r.posClosed = r.pos
	r.pos = -1
	return p
}

// FastForward advances the iteration counter by n without executing any
// phases — the registry-side half of the analytic fast path, called when
// the harness skips a stable window. It is only valid between
// iterations (no phase open) on a sealed structure; positional matching
// is untouched, so the next Begin continues the cycle exactly where a
// simulated iteration would have.
func (r *Registry) FastForward(n int) {
	if n < 0 {
		panic("phase: negative fast-forward")
	}
	if !r.sealed || r.pos != -1 {
		panic("phase: FastForward mid-phase or before the structure sealed")
	}
	r.iter += n
}

// IterDurNS returns the sum of the most recent measured durations across
// all phases — the runtime's estimate of one iteration's span.
func (r *Registry) IterDurNS() float64 {
	var s float64
	for _, p := range r.phases {
		if p.LastNS > 0 {
			s += p.LastNS
		} else {
			s += p.ProfiledNS
		}
	}
	return s
}

// OverlapWindowNS implements the mem_comp_overlap computation of Fig. 5:
// the amount of application execution time available to hide a migration
// of the chunk with ID chunk targeted at phase target — the span from the
// end of the last preceding phase that references the chunk (data
// dependence) to the start of the target phase, walking the cyclic phase
// order backwards.
//
// When no other phase references the chunk, the window is the whole rest of
// the iteration.
func (r *Registry) OverlapWindowNS(chunk, target int) float64 {
	n := len(r.phases)
	if n == 0 {
		return 0
	}
	var window float64
	for step := 1; step < n; step++ {
		j := ((target-step)%n + n) % n
		p := r.phases[j]
		if p.References(chunk) {
			break
		}
		d := p.ProfiledNS
		if p.LastNS > 0 {
			d = p.LastNS
		}
		window += d
	}
	return window
}

// TriggerPhase returns the phase index at whose start a migration of the
// chunk with ID chunk targeted at phase target should be enqueued: the
// earliest phase after the last preceding reference (the yellow arrow of
// Fig. 5).
func (r *Registry) TriggerPhase(chunk, target int) int {
	n := len(r.phases)
	if n == 0 {
		return target
	}
	trigger := target
	for step := 1; step < n; step++ {
		j := ((target-step)%n + n) % n
		if r.phases[j].References(chunk) {
			break
		}
		trigger = j
	}
	return trigger
}
