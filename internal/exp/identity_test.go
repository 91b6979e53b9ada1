package exp

import (
	"bytes"
	"testing"
	"time"

	"unimem/internal/app"
)

// renderAll renders every registry experiment, in registry order, on a
// fresh suite with its own run cache: the run-cache key does not include
// ExactSim, so the two modes must never share one.
func renderAll(t *testing.T, quick, exact bool) []byte {
	t.Helper()
	s := NewSuite()
	s.Quick = quick
	s.engine().SetExactSim(exact)
	order, reg := Registry()
	var buf bytes.Buffer
	for _, id := range order {
		tbl, err := reg[id](s)
		if err != nil {
			t.Fatalf("%s (quick=%v exact=%v): %v", id, quick, exact, err)
		}
		tbl.Render(&buf)
	}
	return buf.Bytes()
}

// TestPaperSuiteExactIdentity is the whole-evaluation exact identity: every
// registry experiment renders byte-identically with the analytic fast path
// on and with every run of the suite simulated iteration by iteration —
// in quick mode always, in full mode unless -short. The default pass must
// have fast-forwarded somewhere, or the equality is vacuous.
func TestPaperSuiteExactIdentity(t *testing.T) {
	modes := []bool{true}
	if !testing.Short() {
		modes = append(modes, false)
	}
	for _, quick := range modes {
		start := time.Now()
		before := app.ReadFastPathTotals()
		fast := renderAll(t, quick, false)
		analytic := app.ReadFastPathTotals().AnalyticIters - before.AnalyticIters
		mid := time.Now()
		exact := renderAll(t, quick, true)
		t.Logf("quick=%v: fast path %v (%d analytic iterations), exact %v",
			quick, mid.Sub(start).Round(time.Millisecond), analytic, time.Since(mid).Round(time.Millisecond))
		if analytic <= 0 {
			t.Errorf("quick=%v: the default pass never fast-forwarded; the identity is vacuous", quick)
		}
		if !bytes.Equal(fast, exact) {
			t.Errorf("quick=%v: the evaluation renders differently under exact simulation:\n--- fast path ---\n%s--- exact ---\n%s",
				quick, fast, exact)
		}
	}
}
