package phase

import (
	"math"
	"testing"
)

// TestDigestDeterminismAndSensitivity: equal fold chains produce equal
// keys; changing any folded value, the fold order, or the value's type
// framing changes the key.
func TestDigestDeterminismAndSensitivity(t *testing.T) {
	mk := func(a uint64, b int64, f float64, s string) Key {
		return NewDigest().Uint64(a).Int64(b).Float64(f).String(s).Key()
	}
	base := mk(1, -2, 3.5, "hot")
	if base != mk(1, -2, 3.5, "hot") {
		t.Fatal("digest not deterministic")
	}
	if base == 0 {
		t.Fatal("zero key is reserved for 'no key'")
	}
	variants := []Key{
		mk(2, -2, 3.5, "hot"),
		mk(1, 2, 3.5, "hot"),
		mk(1, -2, 3.25, "hot"),
		mk(1, -2, 3.5, "cold"),
		NewDigest().Int64(-2).Uint64(1).Float64(3.5).String("hot").Key(), // order
	}
	seen := map[Key]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides", i)
		}
		seen[v] = true
	}
	// Float folding is bit-exact: -0.0 and +0.0 differ in IEEE bits, so
	// they must key differently (the fast path may only rely on exact
	// value equality).
	if NewDigest().Float64(math.Copysign(0, -1)).Key() == NewDigest().Float64(0).Key() {
		t.Error("-0.0 and +0.0 fold identically")
	}
}

// TestRegistryFastForward: advancing between iterations preserves the
// positional cycle; mid-phase or pre-seal fast-forwards panic.
func TestRegistryFastForward(t *testing.T) {
	r := NewRegistry()
	r.Begin("a", Compute, "")
	r.End(1)
	r.Begin("b", Comm, "barrier")
	r.End(1)
	r.Begin("a", Compute, "") // seals
	r.End(1)
	r.Begin("b", Comm, "barrier")
	r.End(1)
	if r.Iter() != 2 {
		t.Fatalf("iter = %d, want 2", r.Iter())
	}
	r.FastForward(10)
	if r.Iter() != 12 {
		t.Fatalf("iter = %d, want 12", r.Iter())
	}
	// The next Begin must continue the cycle at position 0.
	if _, newIter := r.Begin("a", Compute, ""); !newIter {
		t.Fatal("post-fast-forward Begin did not start a new iteration")
	}

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("mid-phase fast-forward", func() { r.FastForward(1) }) // "a" is open
	r.End(1)
	mustPanic("negative fast-forward", func() { r.FastForward(-1) })
	fresh := NewRegistry()
	fresh.Begin("x", Compute, "")
	fresh.End(1)
	mustPanic("pre-seal fast-forward", func() { fresh.FastForward(1) })
}
