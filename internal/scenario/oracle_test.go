package scenario

import (
	"slices"
	"testing"

	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// tableRefs is the compile that epoch lists replaced, kept as the oracle:
// every phase's reference list materialized at every iteration of the
// spec's range.
func tableRefs(s *Spec) [][][]phase.Ref {
	table := make([][][]phase.Ref, len(s.Phases))
	for pi := range s.Phases {
		table[pi] = make([][]phase.Ref, s.Iterations)
		for iter := range table[pi] {
			table[pi][iter] = s.Phases[pi].refsAt(iter)
		}
	}
	return table
}

// derivedContentEpochs is the per-iteration content-epoch derivation that
// epoch lists replaced, kept as the oracle: every iteration whose
// reference list (per the table) or scheduled communication volume
// differs from the previous iteration's, in any phase.
func derivedContentEpochs(w *workloads.Workload, table [][][]phase.Ref) []int {
	var out []int
	for iter := 1; iter < w.Iterations; iter++ {
		for pi := range w.Phases {
			p := &w.Phases[pi]
			if p.CommBytesAt(iter) != p.CommBytesAt(iter-1) || !slices.Equal(table[pi][iter], table[pi][iter-1]) {
				out = append(out, iter)
				break
			}
		}
	}
	return out
}

// checkCompileOracle compiles a valid spec and checks it against the
// per-iteration table: Refs(iter) equals the table at every iteration in
// [0, Iterations), clamps to the last list up to Iterations+2 and to the
// first before 0, and ContentEpochs equals the table's derivation.
func checkCompileOracle(t *testing.T, s *Spec) {
	t.Helper()
	w, err := s.Compile()
	if err != nil {
		t.Fatalf("%s: Compile of a valid spec: %v", s.Name, err)
	}
	table := tableRefs(s)
	for pi := range w.Phases {
		p := &w.Phases[pi]
		rows := table[pi]
		if got := p.Refs(-1); !slices.Equal(got, rows[0]) {
			t.Fatalf("%s phase %s iter -1: refs %v, want %v", s.Name, p.Name, got, rows[0])
		}
		for iter := 0; iter < s.Iterations+2; iter++ {
			want := rows[min(iter, len(rows)-1)]
			if got := p.Refs(iter); !slices.Equal(got, want) {
				t.Fatalf("%s phase %s iter %d: refs %v, table %v", s.Name, p.Name, iter, got, want)
			}
		}
		for k := 1; k < len(p.Epochs); k++ {
			if p.Epochs[k].From <= p.Epochs[k-1].From || slices.Equal(p.Epochs[k].Refs, p.Epochs[k-1].Refs) {
				t.Fatalf("%s phase %s: epochs %d and %d out of order or equal", s.Name, p.Name, k-1, k)
			}
		}
	}
	if got, want := w.ContentEpochs(), derivedContentEpochs(w, table); !slices.Equal(got, want) {
		t.Fatalf("%s: ContentEpochs %v, derivation %v", s.Name, got, want)
	}
}

// oracleSpecs returns every archetype at three seeds plus the captures of
// every built-in workload.
func oracleSpecs(t testing.TB) []*Spec {
	var specs []*Spec
	for _, a := range Archetypes() {
		for _, seed := range []uint64{1, 0x5EED, 0xFA57} {
			s, err := Generate(a, seed)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	for _, w := range builtins() {
		s, err := FromWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestCompileMatchesTableOracle pins the compiled epoch lists to the
// per-iteration table for every archetype x 3 seeds and every built-in
// capture, so fast-path engagement cannot change.
func TestCompileMatchesTableOracle(t *testing.T) {
	for _, s := range oracleSpecs(t) {
		checkCompileOracle(t, s)
	}
}

// FuzzScenarioParseCompile is the differential fuzz of compilation: any
// spec Parse accepts must compile without panicking to epoch lists that
// agree with the per-iteration table oracle. Specs above maxIters are
// skipped only because the oracle table is O(iterations).
func FuzzScenarioParseCompile(f *testing.F) {
	const maxIters = 1 << 12
	for _, s := range oracleSpecs(f) {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"windows","ranks":2,"iterations":9,
		"objects":[{"name":"o","size_bytes":4096},{"name":"p","size_bytes":4096}],
		"phases":[{"name":"a","comm":"halo","comm_bytes":64,
			"comm_schedule":[{"from":3,"to":5,"scale":1},{"from":4,"scale":2}],
			"refs":[{"object":"o","accesses":1000,"read_frac":0.8,"pattern":"stream","schedule":[
				{"from":2,"to":4,"scale":0},{"from":4,"to":6,"scale":0.5,"pattern":"random","read_frac":0.25},
				{"from":5,"to":40,"scale":3}]}],
			"epochs":[{"from":7,"to":8,"refs":[{"object":"p","accesses":5,"read_frac":1,"pattern":"stencil"}]},
				{"from":6,"refs":[{"object":"p","accesses":5,"read_frac":1,"pattern":"stencil"}]},
				{"from":20,"to":30,"refs":[]}]},
			{"name":"b","refs":[{"object":"o","accesses":10,"read_frac":1,"pattern":"random",
				"schedule":[{"from":1,"to":3,"scale":2}]}],
			"epochs":[{"from":5,"to":7,"refs":[{"object":"p","accesses":9,"read_frac":0,"pattern":"stream"}]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s.Iterations > maxIters {
			t.Skip("oracle table too large")
		}
		checkCompileOracle(t, s)
	})
}

// TestCompileAllocsIndependentOfIterations gates the compile cost: a
// drifting spec compiles with the same number of allocations at 10,000
// and at 1,000,000 iterations, because it evaluates each phase once per
// change point rather than once per iteration.
func TestCompileAllocsIndependentOfIterations(t *testing.T) {
	allocs := func(iters int) float64 {
		s, err := Generate(ArchPatternDrift, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Iterations = iters
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Compile(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(1_000_000)
	ok := large == small
	if raceEnabled {
		ok = large <= 2*small // a per-iteration compile makes a million more
	}
	if !ok {
		t.Errorf("Compile allocates %.0f times at 10,000 iterations but %.0f at 1,000,000", small, large)
	}
}
