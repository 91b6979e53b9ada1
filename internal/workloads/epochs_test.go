package workloads

import (
	"fmt"
	"slices"
	"testing"

	"unimem/internal/phase"
)

// derivedContentEpochs is the per-iteration derivation the epoch lists
// replaced, kept as the oracle: an epoch starts at every iteration whose
// reference list or scheduled communication volume differs from the
// previous iteration's, in any phase.
func derivedContentEpochs(w *Workload) []int {
	var out []int
	for iter := 1; iter < w.Iterations; iter++ {
		for pi := range w.Phases {
			p := &w.Phases[pi]
			if p.CommBytesAt(iter) != p.CommBytesAt(iter-1) || !slices.Equal(p.Refs(iter), p.Refs(iter-1)) {
				out = append(out, iter)
				break
			}
		}
	}
	return out
}

// TestContentEpochs pins the change points the fast path bounds its
// windows by: every epoch start and every communication-schedule edge
// inside the run that changes the volume, and no other iteration.
func TestContentEpochs(t *testing.T) {
	const iters = 12
	ref := func(obj string) []phase.Ref { return []phase.Ref{{Object: obj, Accesses: 100, ReadFrac: 0.5}} }
	// switchAt returns the epoch list of a phase whose single reference
	// moves from one object to another at iteration k.
	switchAt := func(k int, before, after string) []RefEpoch {
		return AppendEpoch(AppendEpoch(nil, 0, ref(before)), k, ref(after))
	}
	cases := []struct {
		name   string
		phases []Phase
		want   []int
	}{
		{"stationary", []Phase{
			{Name: "p", Epochs: Static(ref("a")...), CommBytes: 64, Comm: CommAllreduce},
			{Name: "q", Epochs: Static(ref("b")...)},
			{Name: "r"},
		}, nil},
		{"refs change at k", []Phase{
			{Name: "p", Epochs: switchAt(5, "a", "b")},
		}, []int{5}},
		{"equal neighbours merge", []Phase{
			{Name: "p", Epochs: switchAt(5, "a", "a")},
		}, nil},
		{"comm schedule only", []Phase{
			{Name: "p", Epochs: Static(ref("a")...), Comm: CommHalo, CommBytes: 1 << 10,
				CommSchedule: []ScaleWindow{{From: 7, Scale: 4}}},
		}, []int{7}},
		{"comm schedule at scale 1", []Phase{
			{Name: "p", Comm: CommHalo, CommBytes: 1 << 10,
				CommSchedule: []ScaleWindow{{From: 3, To: 9, Scale: 1}}},
		}, nil},
		{"A then B then A", []Phase{
			{Name: "p", Epochs: AppendEpoch(switchAt(3, "a", "b"), 8, ref("a"))},
		}, []int{3, 8}},
		{"changes past the run", []Phase{
			{Name: "p", Epochs: switchAt(iters, "a", "b"), CommBytes: 64,
				CommSchedule: []ScaleWindow{{From: 2, To: iters + 4, Scale: 2}}},
		}, []int{2}},
		{"two phases change together", []Phase{
			{Name: "p", Epochs: switchAt(4, "a", "b")},
			{Name: "q", Epochs: Static(ref("c")...), CommBytes: 8, Comm: CommBcast,
				CommSchedule: []ScaleWindow{{From: 4, To: 6, Scale: 2}}},
		}, []int{4, 6}},
	}
	for _, c := range cases {
		w := &Workload{Name: c.name, Iterations: iters, Phases: c.phases}
		before := fmt.Sprint(*w)
		got := w.ContentEpochs()
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: epochs = %v, want %v", c.name, got, c.want)
		}
		if want := derivedContentEpochs(w); !slices.Equal(got, want) {
			t.Errorf("%s: epochs = %v, per-iteration derivation %v", c.name, got, want)
		}
		if after := fmt.Sprint(*w); after != before {
			t.Errorf("%s: ContentEpochs mutated the workload", c.name)
		}
	}
}

// TestRefsLookup pins Phase.Refs: the list of the last epoch starting at
// or before the iteration, the first epoch's before 0, nil without epochs.
func TestRefsLookup(t *testing.T) {
	a := []phase.Ref{{Object: "a", Accesses: 1}}
	b := []phase.Ref{{Object: "b", Accesses: 2}}
	p := Phase{Epochs: []RefEpoch{{From: 0, Refs: a}, {From: 4, Refs: b}, {From: 9, Refs: a}}}
	for iter, want := range map[int][]phase.Ref{-3: a, 0: a, 3: a, 4: b, 8: b, 9: a, 1000: a} {
		if got := p.Refs(iter); !slices.Equal(got, want) {
			t.Errorf("Refs(%d) = %v, want %v", iter, got, want)
		}
	}
	if got := (&Phase{}).Refs(0); got != nil {
		t.Errorf("phase without epochs: Refs(0) = %v, want nil", got)
	}
	buf := []phase.Ref{{Object: "a", Accesses: 1}}
	es := AppendEpoch(nil, 0, buf)
	buf[0].Accesses = 7
	if es[0].Refs[0].Accesses != 1 {
		t.Error("AppendEpoch kept the caller's buffer instead of a copy")
	}
}

// TestRefsDoesNotAllocate gates the hot lookup: reading a drifting
// phase's traffic is one binary search over its epochs, no allocation.
func TestRefsDoesNotAllocate(t *testing.T) {
	w := NewNek5000("C", 4)
	var drift *Phase
	for i := range w.Phases {
		if len(w.Phases[i].Epochs) > 1 {
			drift = &w.Phases[i]
			break
		}
	}
	if drift == nil {
		t.Fatal("Nek5000 declares no drifting phase")
	}
	iter := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_ = drift.Refs(iter % w.Iterations)
		iter += 7
	})
	if allocs != 0 {
		t.Errorf("Phase.Refs allocates %.1f times per call, want 0", allocs)
	}
}

// oldNek5000Refs rebuilds Nek5000's drifting phases as the per-iteration
// closures they were before epoch lists: the hot Krylov set recomputed
// on every call. Phases absent from the map were iteration-invariant.
func oldNek5000Refs(class string, ranks int) map[string]func(iter int) []phase.Ref {
	const driftPeriod = 10
	b := &builder{w: NewNek5000(class, ranks), scale: classScale(class) * 4.0 / float64(ranks)}
	var work []string
	for i := 1; i <= 12; i++ {
		work = append(work, fmt.Sprintf("wk%02d", i))
	}
	hotWork := func(iter int) []string {
		base := (iter / driftPeriod) * 3 % len(work)
		out := make([]string, 4)
		for i := range out {
			out[i] = work[(base+i)%len(work)]
		}
		return out
	}
	return map[string]func(int) []phase.Ref{
		"pressure_solve": func(iter int) []phase.Ref {
			refs := []phase.Ref{
				b.rr("pr", 1.6, 0.5),
				b.rs("v1mask", 1, 0), b.rs("v2mask", 1, 0),
			}
			for _, wname := range hotWork(iter) {
				refs = append(refs, b.rr(wname, 1.8, 0.5))
			}
			return refs
		},
		"viscous_solve": func(iter int) []phase.Ref {
			refs := []phase.Ref{
				b.rt("vx", 1, 0.5), b.rt("vy", 1, 0.5), b.rt("vz", 1, 0.5),
				b.rs("v3mask", 1, 0), b.rs("tmask", 1, 0),
			}
			for _, wname := range hotWork(iter) {
				refs = append(refs, b.rr(wname, 1.2, 0.5))
			}
			return refs
		},
	}
}

// TestBuiltinEpochsMatchOldClosures is the oracle gate for every built-in:
// at every iteration each phase's epoch list returns what its old closure
// returned (Nek5000's drift closures; the invariant phases' iteration-0
// list), and ContentEpochs equals the per-iteration derivation — so the
// fast path bounds its windows exactly where it did before.
func TestBuiltinEpochsMatchOldClosures(t *testing.T) {
	var ws []*Workload
	for _, class := range []string{"A", "C"} {
		ws = append(ws, EvalSuite(class, 4)...)
	}
	ws = append(ws, NewNek5000("A", 2), NewSTREAM(4), NewPointerChase(4))
	for _, w := range ws {
		var old map[string]func(int) []phase.Ref
		if w.Name == "Nek5000" {
			old = oldNek5000Refs(w.Class, w.Ranks)
		}
		for pi := range w.Phases {
			p := &w.Phases[pi]
			want := func(int) []phase.Ref { return p.Refs(0) }
			if fn, ok := old[p.Name]; ok {
				want = fn
				delete(old, p.Name)
			} else if len(p.Epochs) != 1 {
				t.Errorf("%s/%s: invariant phase has %d epochs, want 1", w.Name, p.Name, len(p.Epochs))
			}
			for iter := 0; iter < w.Iterations; iter++ {
				if got := p.Refs(iter); !slices.Equal(got, want(iter)) {
					t.Fatalf("%s/%s iter %d: refs %v, old closure %v", w.Name, p.Name, iter, got, want(iter))
				}
			}
		}
		if len(old) != 0 {
			t.Errorf("%s: drifting phases %v missing", w.Name, old)
		}
		if got, want := w.ContentEpochs(), derivedContentEpochs(w); !slices.Equal(got, want) {
			t.Errorf("%s: ContentEpochs = %v, derivation %v", w.Name, got, want)
		}
	}
}
