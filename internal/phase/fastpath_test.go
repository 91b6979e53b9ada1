package phase

import "testing"

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
