package core_test

import (
	"sync"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// TestTinyDRAMGracefulDegradation: with DRAM far smaller than any object,
// nothing is placeable; the runtime must run to completion at NVM-only
// speed without failures cascading.
func TestTinyDRAMGracefulDegradation(t *testing.T) {
	w := tinyWorkload(8)
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(8 << 20)
	res, rt := run(t, w, m, core.DefaultConfig())
	if res.Ranks[0].Migrations.Migrations != 0 {
		t.Fatalf("nothing fits in 8MB DRAM, yet %d migrations happened",
			res.Ranks[0].Migrations.Migrations)
	}
	if rt.Plan() == nil {
		t.Fatal("the runtime must still decide (an empty placement)")
	}
	nvm, err := app.Run(w, m, app.Options{Ranks: 1}, app.NewStaticFactory("nvm", nil))
	if err != nil {
		t.Fatal(err)
	}
	// Within ~5% of NVM-only (profiling overhead only).
	if float64(res.TimeNS) > 1.05*float64(nvm.TimeNS) {
		t.Fatalf("degraded run %d >> nvm-only %d", res.TimeNS, nvm.TimeNS)
	}
}

// TestNodeDRAMContention: many ranks sharing one node's DRAM service must
// not deadlock or double-book; failed moves are counted, not fatal.
func TestNodeDRAMContention(t *testing.T) {
	w := tinyWorkload(6)
	w.Ranks = 8
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(200 << 20)
	var mu sync.Mutex
	var rts []*core.Runtime
	res, err := app.Run(w, m, app.Options{Ranks: 8, RanksPerNode: 8}, func(rank int) app.Manager {
		rt := core.NewRuntime(rank, core.DefaultConfig())
		mu.Lock()
		rts = append(rts, rt)
		mu.Unlock()
		return rt
	})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate DRAM residency across all 8 ranks must fit the node.
	var resident int64
	for _, rt := range rts {
		for _, name := range rt.DRAMResidents() {
			resident += w.Object(name).Size
		}
	}
	if resident > 200<<20 {
		t.Fatalf("node DRAM overbooked: %d bytes resident", resident)
	}
	if res.TimeNS <= 0 {
		t.Fatal("run did not complete")
	}
}

// TestSingleIterationApp: the main loop runs exactly once — the runtime
// profiles but never reaches a decision point; it must shut down cleanly.
func TestSingleIterationApp(t *testing.T) {
	res, rt := run(t, tinyWorkload(1), nvmMachine(), core.DefaultConfig())
	if rt.Decisions != 0 {
		t.Fatalf("decisions = %d on a single-iteration app", rt.Decisions)
	}
	if res.TimeNS <= 0 {
		t.Fatal("no time recorded")
	}
}

// TestTwoIterationApp: the decision lands exactly at the second
// iteration's start; enforcement has one iteration to act.
func TestTwoIterationApp(t *testing.T) {
	_, rt := run(t, tinyWorkload(2), nvmMachine(), core.DefaultConfig())
	if rt.Decisions != 1 {
		t.Fatalf("decisions = %d", rt.Decisions)
	}
}

// TestManyObjectsKnapsackScale: hundreds of small objects exercise the
// knapsack DP at scale without pathological runtime.
func TestManyObjectsKnapsackScale(t *testing.T) {
	w := &workloads.Workload{
		Name: "many", Class: "C", Ranks: 1, Iterations: 4,
	}
	var refs []phase.Ref
	for i := 0; i < 200; i++ {
		name := "o" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		w.Objects = append(w.Objects, workloads.ObjectSpec{Name: name, Size: 4 << 20})
		refs = append(refs, phase.Ref{
			Object: name, Accesses: int64(1000 * (i + 1)), ReadFrac: 0.5,
			Pattern: machine.Stream,
		})
	}
	w.Phases = []workloads.Phase{
		{Name: "touch_all", Kind: phase.Compute, Flops: 1e6,
			Epochs: workloads.Static(refs...)},
		{Name: "sync", Kind: phase.Comm, Comm: workloads.CommBarrier},
	}
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(64 << 20)
	res, rt := run(t, w, m, core.DefaultConfig())
	if res.TimeNS <= 0 || rt.Plan() == nil {
		t.Fatal("run failed")
	}
	// Residency must respect capacity.
	var resident int64
	for _, n := range rt.DRAMResidents() {
		resident += w.Object(n).Size
	}
	if resident > 64<<20 {
		t.Fatalf("capacity violated: %d", resident)
	}
}

// TestAblationKnobsRunEndToEnd ensures each ablation configuration is
// functional (the ablation experiment depends on them).
func TestAblationKnobsRunEndToEnd(t *testing.T) {
	for _, knob := range []func(*core.Config){
		func(c *core.Config) { c.LiteralEq3 = true },
		func(c *core.Config) { c.NaivePredictor = true },
		func(c *core.Config) { c.NoHysteresis = true },
	} {
		cfg := core.DefaultConfig()
		knob(&cfg)
		res, _ := run(t, tinyWorkload(8), nvmMachine(), cfg)
		if res.TimeNS <= 0 {
			t.Fatal("ablated run failed")
		}
	}
}
