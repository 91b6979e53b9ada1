package unimem_test

import (
	"context"
	"testing"

	"unimem"
)

// run executes one job on a fresh session and fails the test on error.
func run(t *testing.T, m *unimem.Machine, w *unimem.Workload, st unimem.Strategy, cfg *unimem.Config) *unimem.Outcome {
	t.Helper()
	out, err := unimem.New(m).RunJob(context.Background(), unimem.Job{Workload: w, Strategy: st, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func buildApp(iters int) *unimem.Workload {
	app := unimem.NewApp("demo", 2, iters)
	app.Object("field", 96<<20, unimem.WithHint(2e6))
	app.Object("index", 96<<20)
	app.Object("scratch", 96<<20)
	app.ComputePhase("sweep", 20e6,
		unimem.Stream("field", 2e6, 0.5),
		unimem.Chase("index", 4e5, 0))
	app.CommPhase("sum", unimem.Allreduce, 64, 1e6)
	return app.Build()
}

func TestPublicAPIEndToEnd(t *testing.T) {
	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(224 << 20)
	w := buildApp(15)

	dram := run(t, m, w, unimem.DRAMOnly(), nil).Result
	nvm := run(t, m, w, unimem.SlowestOnly(), nil).Result
	cfg := unimem.DefaultConfig()
	cfg.Calibration = unimem.Calibrate(m)
	out := run(t, m, w, unimem.Unimem(), &cfg)
	uni, rts := out.Result, out.Runtimes
	if len(rts) != 2 {
		t.Fatalf("expected 2 runtimes, got %d", len(rts))
	}
	if !(dram.TimeNS <= uni.TimeNS && uni.TimeNS < nvm.TimeNS) {
		t.Fatalf("ordering violated: dram=%d uni=%d nvm=%d", dram.TimeNS, uni.TimeNS, nvm.TimeNS)
	}
	for _, rt := range rts {
		if rt.Plan() == nil {
			t.Fatal("runtime has no plan")
		}
	}
}

func TestXMemComparable(t *testing.T) {
	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
	w := unimem.NewNPB("CG", "C", 4)
	xm := run(t, m, w, unimem.XMem(), nil).Result
	nvm := run(t, m, w, unimem.SlowestOnly(), nil).Result
	if xm.TimeNS >= nvm.TimeNS {
		t.Fatal("X-Mem should beat NVM-only on CG")
	}
}

func TestBenchmarksSuite(t *testing.T) {
	suite := unimem.Benchmarks("C", 4)
	if len(suite) != 7 {
		t.Fatalf("suite size %d", len(suite))
	}
}

func TestExperimentsRegistry(t *testing.T) {
	order, reg := unimem.Experiments()
	if len(order) == 0 || len(reg) != len(order) {
		t.Fatal("experiment registry incomplete")
	}
	s := unimem.NewExperimentSuite()
	tbl, err := reg["table1"](s)
	if err != nil || len(tbl.Rows) == 0 {
		t.Fatalf("table1 runner: %v", err)
	}
}

func TestBuilderValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { unimem.NewApp("x", 0, 1) },
		func() {
			a := unimem.NewApp("x", 1, 1)
			a.Object("o", 1<<20)
			a.Object("o", 1<<20)
		},
		func() {
			a := unimem.NewApp("x", 1, 1)
			a.ComputePhase("p", 1, unimem.Stream("ghost", 100, 0))
			a.Build()
		},
		func() { unimem.NewApp("x", 1, 1).Build() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected builder panic")
				}
			}()
			fn()
		}()
	}
}

// TestComputePhaseFnEpochs: Build evaluates a drifting phase's closure
// once per iteration and keeps one epoch per stretch of equal lists, so
// the closure may reuse its buffer; a reference to an unknown object at
// any iteration, not just the first, is rejected.
func TestComputePhaseFnEpochs(t *testing.T) {
	const iters = 12
	buf := make([]unimem.Ref, 1)
	want := func(iter int) []unimem.Ref {
		obj := "a"
		if iter >= 5 && iter < 9 {
			obj = "b"
		}
		buf[0] = unimem.Stream(obj, 1000, 0.5)
		return buf
	}
	calls := 0
	app := unimem.NewApp("drift", 1, iters)
	app.Object("a", 1<<20)
	app.Object("b", 1<<20)
	app.ComputePhaseFn("p", 1e6, func(iter int) []unimem.Ref {
		calls++
		return want(iter)
	})
	w := app.Build()
	if calls != iters {
		t.Errorf("closure called %d times, want once per iteration (%d)", calls, iters)
	}
	ph := &w.Phases[0]
	if len(ph.Epochs) != 3 {
		t.Errorf("%d epochs, want 3 (a, b, a)", len(ph.Epochs))
	}
	for iter := 0; iter < iters; iter++ {
		if got, exp := ph.Refs(iter), want(iter); len(got) != 1 || got[0] != exp[0] {
			t.Errorf("Refs(%d) = %v, want %v", iter, got, exp)
		}
	}
	if got := w.ContentEpochs(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("ContentEpochs() = %v, want [5 9]", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("a late reference to an unknown object was accepted")
		}
	}()
	bad := unimem.NewApp("late-ghost", 1, iters)
	bad.Object("a", 1<<20)
	bad.ComputePhaseFn("p", 1e6, func(iter int) []unimem.Ref {
		if iter == iters-1 {
			return []unimem.Ref{unimem.Stream("ghost", 1, 0)}
		}
		return []unimem.Ref{unimem.Stream("a", 1, 0)}
	})
	bad.Build()
}

// TestRunTieredEndToEnd drives the public N-tier API: a Unimem run on the
// three-tier platform must produce a multiple-choice-knapsack plan, beat
// slowest-only, and Outcome.Tiered must report per-tier usage consistent
// with the machine.
func TestRunTieredEndToEnd(t *testing.T) {
	m := unimem.PlatformHBMDDRNVM()
	w := buildApp(15)

	fast := run(t, m, w, unimem.FastestOnly(), nil).Result
	slow := run(t, m, w, unimem.SlowestOnly(), nil).Result
	cfg := unimem.DefaultConfig()
	cfg.Calibration = unimem.Calibrate(m)
	out := run(t, m, w, unimem.Unimem(), &cfg)
	res, rts := out.Tiered(), out.Runtimes
	if !(fast.TimeNS <= res.TimeNS && res.TimeNS < slow.TimeNS) {
		t.Fatalf("ordering violated: fast=%d tiered=%d slow=%d", fast.TimeNS, res.TimeNS, slow.TimeNS)
	}
	if len(res.Tiers) != m.NumTiers() {
		t.Fatalf("tier usage entries %d, want %d", len(res.Tiers), m.NumTiers())
	}
	var resident int64
	for i, u := range res.Tiers {
		if u.Tier != i || u.Name != m.TierName(unimem.TierKind(i)) {
			t.Fatalf("tier usage %d mislabeled: %+v", i, u)
		}
		resident += u.ResidentBytes
	}
	if resident != w.TotalObjectBytes() {
		t.Fatalf("per-tier residency sums to %d, want total footprint %d", resident, w.TotalObjectBytes())
	}
	for _, rt := range rts {
		if rt.TierPlan() == nil {
			t.Fatal("multi-tier runtime has no tier plan")
		}
		if rt.Plan() != nil {
			t.Fatal("multi-tier runtime should not carry a two-tier plan")
		}
	}
	// The streamed object must land in a faster tier than the chased one
	// stays out of: field is bandwidth-bound (HBM), index latency-bound.
	tp := rts[0].TierPlan()
	if tp.Assign["field"] >= m.NumTiers()-1 {
		t.Errorf("bandwidth-bound object left in the slowest tier: %v", tp.Assign)
	}
}
