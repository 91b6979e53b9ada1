package scenario

import (
	"reflect"
	"slices"
	"testing"
)

// TestGenerateDeterministic: equal (archetype, seed) pairs must produce
// identical specs — the property the fleet experiment's serial-vs-parallel
// golden equivalence and the run cache both rest on.
func TestGenerateDeterministic(t *testing.T) {
	for _, a := range Archetypes() {
		s1, err := Generate(a, 42)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		s2, err := Generate(a, 42)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: same seed produced different specs", a)
		}
		if s1.Digest() != s2.Digest() {
			t.Errorf("%s: same seed produced different digests", a)
		}
		s3, err := Generate(a, 43)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if s1.Digest() == s3.Digest() {
			t.Errorf("%s: different seeds produced identical digests", a)
		}
	}
}

// TestGenerateAllArchetypesCompile: every archetype validates, compiles,
// sets hints, and has placement tension (placeable objects exceed the
// 256 MiB fast tier).
func TestGenerateAllArchetypesCompile(t *testing.T) {
	for _, a := range Archetypes() {
		for seed := uint64(0); seed < 5; seed++ {
			s, err := Generate(a, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", a, seed, err)
			}
			w, err := s.Compile()
			if err != nil {
				t.Fatalf("%s seed %d: compile: %v", a, seed, err)
			}
			if w.TotalObjectBytes() <= 256<<20 {
				t.Errorf("%s seed %d: footprint %d MiB fits the fast tier — no placement tension",
					a, seed, w.TotalObjectBytes()>>20)
			}
			hinted := 0
			for _, o := range w.Objects {
				if o.RefHint > 0 {
					hinted++
				}
			}
			if hinted == 0 {
				t.Errorf("%s seed %d: no static hints set", a, seed)
			}
		}
	}
}

// TestDriftArchetypesActuallyDrift: drift archetypes' ground truth must
// vary across iterations; stationary archetypes must not.
func TestDriftArchetypesActuallyDrift(t *testing.T) {
	for _, a := range Archetypes() {
		s, err := Generate(a, 11)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		varies := false
		for i := range w.Phases {
			base := w.Phases[i].Refs(0)
			for iter := 1; iter < w.Iterations && !varies; iter++ {
				varies = !slices.Equal(base, w.Phases[i].Refs(iter))
			}
		}
		if varies != a.IsDrift() {
			t.Errorf("%s: traffic varies=%v, want %v", a, varies, a.IsDrift())
		}
		// Drift must land inside a Quick-capped (12-iteration) run too.
		if a.IsDrift() {
			early := false
			for i := range w.Phases {
				base := w.Phases[i].Refs(0)
				for iter := 1; iter < 12 && !early; iter++ {
					early = !slices.Equal(base, w.Phases[i].Refs(iter))
				}
			}
			if !early {
				t.Errorf("%s: first drift event after iteration 12 — invisible to Quick-mode fleets", a)
			}
		}
	}
}
