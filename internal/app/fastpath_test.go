package app

import (
	"testing"

	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// TestFastPathStreaks pins the stability signal the fast-forward vote
// consumes: a repeated key grows its position's streak, a changed key
// restarts it, stableIters is the minimum across positions, and it is 0
// before any observation.
func TestFastPathStreaks(t *testing.T) {
	fp := &fastPath{lastKey: make([]phase.Key, 2), streak: make([]int, 2)}
	if got := fp.stableIters(); got != 0 {
		t.Fatalf("stableIters before any observation = %d, want 0", got)
	}
	k0 := phase.NewDigest().String("p0").Key()
	k1 := phase.NewDigest().String("p1").Key()

	fp.observe(0, k0)
	if got := fp.stableIters(); got != 0 {
		t.Errorf("stableIters with an unobserved position = %d, want 0", got)
	}
	fp.observe(1, k1)
	if got := fp.stableIters(); got != 1 {
		t.Errorf("stableIters after one iteration = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		fp.observe(0, k0)
		fp.observe(1, k1)
	}
	if got := fp.stableIters(); got != 4 {
		t.Errorf("stableIters after four repeats = %d, want 4", got)
	}

	// Position 0's key changes: its streak restarts, dragging the minimum
	// down while position 1 keeps growing.
	fp.observe(0, phase.NewDigest().String("p0'").Key())
	fp.observe(1, k1)
	if fp.streak[0] != 1 || fp.streak[1] != 5 {
		t.Errorf("streaks = %v, want [1 5]", fp.streak)
	}
	if got := fp.stableIters(); got != 1 {
		t.Errorf("stableIters after a key change = %d, want 1", got)
	}
}

// TestFastPathScanEpochs: the scan accepts a window only when its first
// iteration matches the template, and ends it at the next content epoch.
func TestFastPathScanEpochs(t *testing.T) {
	refs := func(iter int) []phase.Ref {
		n := int64(100)
		if iter >= 6 {
			n = 200
		}
		return []phase.Ref{{Object: "a", Accesses: n}}
	}
	w := &workloads.Workload{
		Name:       "scan",
		Iterations: 10,
		Phases:     []workloads.Phase{{Name: "p", Kind: phase.Compute, Refs: refs}},
	}
	epochs := w.ComputeContentEpochs()
	if len(epochs) != 1 || epochs[0] != 6 {
		t.Fatalf("epochs = %v, want [6]", epochs)
	}
	fp := &fastPath{rc: &RankCtx{W: w}, epochs: epochs, lastContent: make([]phase.Key, 1)}

	fp.lastContent[0] = w.Phases[0].ContentKey(2)
	if got := fp.scan(3); got != 3 {
		t.Errorf("scan(3) = %d, want 3 (window [3, 6))", got)
	}
	if got := fp.scan(6); got != 0 {
		t.Errorf("scan(6) = %d, want 0 (content changed)", got)
	}
	fp.lastContent[0] = w.Phases[0].ContentKey(6)
	if got := fp.scan(7); got != 3 {
		t.Errorf("scan(7) = %d, want 3 (window [7, 10))", got)
	}
}
