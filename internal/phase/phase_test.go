package phase

import (
	"testing"

	"unimem/internal/counters"
)

// profiled installs a synthetic profile referencing the given chunk IDs.
func profiled(p *Info, durNS float64, chunks ...int) {
	ps := &counters.PhaseSample{DurNS: durNS, TotalSamples: 1000}
	for _, c := range chunks {
		ps.Objects = append(ps.Objects, counters.ObjSample{
			ID: c, SampledAccesses: 100, BusySamples: 10,
		})
	}
	p.SetProfile(ps)
}

// drive walks the registry through one iteration of the given phase names.
func drive(r *Registry, names []string, dur float64) {
	for _, n := range names {
		r.Begin(n, Compute, "")
		r.End(dur)
	}
}

func TestDiscoveryAndSealing(t *testing.T) {
	r := NewRegistry()
	names := []string{"a", "b", "c"}
	drive(r, names, 10)
	if r.Sealed() {
		t.Fatal("sealed before the first call site recurred")
	}
	if r.Len() != 3 {
		t.Fatalf("registered %d phases", r.Len())
	}
	// Second iteration: the recurrence of "a" seals the structure.
	p, newIter := r.Begin("a", Compute, "")
	if !r.Sealed() || !newIter || p.ID != 0 {
		t.Fatalf("sealing failed: sealed=%v newIter=%v id=%d", r.Sealed(), newIter, p.ID)
	}
	if r.Iter() != 1 {
		t.Fatalf("iterations completed = %d, want 1", r.Iter())
	}
	r.End(10)
}

func TestIterationCounting(t *testing.T) {
	r := NewRegistry()
	names := []string{"x", "y"}
	for i := 0; i < 5; i++ {
		drive(r, names, 5)
	}
	if r.Iter() != 5 {
		t.Fatalf("iterations = %d, want 5", r.Iter())
	}
}

func TestPositionalMatchingPanicsOnDrift(t *testing.T) {
	r := NewRegistry()
	drive(r, []string{"a", "b"}, 5)
	r.Begin("a", Compute, "")
	r.End(5)
	defer func() {
		if recover() == nil {
			t.Fatal("structure drift should panic")
		}
	}()
	r.Begin("zzz", Compute, "")
}

func TestBeginWhileOpenPanics(t *testing.T) {
	r := NewRegistry()
	r.Begin("a", Compute, "")
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin should panic")
		}
	}()
	r.Begin("b", Compute, "")
}

func TestEndWithoutBeginPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin should panic")
		}
	}()
	r.End(1)
}

func TestProfileReferenceSet(t *testing.T) {
	p := &Info{}
	profiled(p, 100, 0, 2)
	if !p.References(0) || p.References(1) || !p.References(2) || p.References(3) {
		t.Fatal("reference set wrong")
	}
	if p.ProfiledNS != 100 {
		t.Fatalf("ProfiledNS = %v", p.ProfiledNS)
	}
	// A re-profile replaces the set rather than adding to it.
	profiled(p, 50, 1)
	if p.References(0) || !p.References(1) || p.References(2) {
		t.Fatal("re-profile kept stale references")
	}
}

// buildProfiled makes a sealed 5-phase registry with known references:
// phase 0 and 3 touch chunk hot; nothing touches chunk cold.
func buildProfiled(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	names := []string{"p0", "p1", "p2", "p3", "p4"}
	drive(r, names, 100)
	refs := map[int][]int{0: {hot}, 3: {hot}}
	for i, p := range r.Phases() {
		profiled(p, 100, refs[i]...)
	}
	drive(r, names, 100) // seal
	return r
}

// Chunk IDs of buildProfiled's registry.
const hot, cold = 0, 5

func TestOverlapWindow(t *testing.T) {
	r := buildProfiled(t)
	// Migration of hot for phase 3: last prior reference is phase 0, so
	// the window spans phases 1 and 2 = 200ns.
	if w := r.OverlapWindowNS(hot, 3); w != 200 {
		t.Fatalf("window = %v, want 200", w)
	}
	// For phase 0 (wrapping): last prior reference is phase 3 -> window is
	// phase 4 = 100ns.
	if w := r.OverlapWindowNS(hot, 0); w != 100 {
		t.Fatalf("wrapped window = %v, want 100", w)
	}
	// Unreferenced chunk: the whole rest of the iteration (4 phases).
	if w := r.OverlapWindowNS(cold, 2); w != 400 {
		t.Fatalf("cold window = %v, want 400", w)
	}
}

func TestTriggerPhase(t *testing.T) {
	r := buildProfiled(t)
	if tr := r.TriggerPhase(hot, 3); tr != 1 {
		t.Fatalf("trigger for phase 3 = %d, want 1 (just after phase 0's use)", tr)
	}
	if tr := r.TriggerPhase(hot, 0); tr != 4 {
		t.Fatalf("wrapped trigger = %d, want 4", tr)
	}
	if tr := r.TriggerPhase(cold, 2); tr != 3 {
		t.Fatalf("cold trigger = %d, want 3 (earliest possible)", tr)
	}
}

func TestIterDur(t *testing.T) {
	r := buildProfiled(t)
	if d := r.IterDurNS(); d != 500 {
		t.Fatalf("iteration duration = %v, want 500", d)
	}
}

func TestCommPhaseKind(t *testing.T) {
	r := NewRegistry()
	p, _ := r.Begin("allreduce", Comm, "Allreduce")
	if p.Kind != Comm || p.MPIOp != "Allreduce" {
		t.Fatalf("comm phase metadata %+v", p)
	}
	r.End(1)
	if Comm.String() != "comm" || Compute.String() != "compute" {
		t.Fatal("kind names wrong")
	}
}
