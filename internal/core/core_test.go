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

// tinyWorkload builds a 3-phase iterative app with one hot streaming
// object, one cold object and one latency-bound object, sized so DRAM
// (configured below) holds two of the three.
func tinyWorkload(iters int) *workloads.Workload {
	return &workloads.Workload{
		Name: "tiny", Class: "C", Ranks: 1, Iterations: iters,
		Objects: []workloads.ObjectSpec{
			{Name: "hot", Size: 96 << 20, RefHint: 3e6},
			{Name: "chase", Size: 96 << 20, RefHint: 5e5},
			{Name: "cold", Size: 96 << 20},
		},
		Phases: []workloads.Phase{
			{Name: "sweep", Kind: phase.Compute, Flops: 10e6,
				Epochs: workloads.Static(phase.Ref{Object: "hot", Accesses: 1.3e6, ReadFrac: 0.7, Pattern: machine.Stream})},
			{Name: "gather", Kind: phase.Compute, Flops: 5e6,
				Epochs: workloads.Static(phase.Ref{Object: "chase", Accesses: 3e5, ReadFrac: 1, Pattern: machine.PointerChase})},
			{Name: "reduce", Kind: phase.Comm, Comm: workloads.CommAllreduce, CommBytes: 64},
		},
	}
}

func run(t *testing.T, w *workloads.Workload, m *machine.Machine, cfg core.Config) (*app.Result, *core.Runtime) {
	t.Helper()
	var rt *core.Runtime
	res, err := app.Run(w, m, app.Options{Ranks: 1}, func(rank int) app.Manager {
		rt = core.NewRuntime(rank, cfg)
		return rt
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rt
}

func nvmMachine() *machine.Machine {
	return machine.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(224 << 20)
}

func TestWorkflowProfileDecideEnforce(t *testing.T) {
	m := nvmMachine()
	res, rt := run(t, tinyWorkload(10), m, core.DefaultConfig())
	if rt.Decisions != 1 {
		t.Fatalf("decisions = %d, want 1 (stationary workload)", rt.Decisions)
	}
	if rt.Plan() == nil {
		t.Fatal("no plan after run")
	}
	residents := rt.DRAMResidents()
	has := func(name string) bool {
		for _, r := range residents {
			if r == name {
				return true
			}
		}
		return false
	}
	if !has("hot") || !has("chase") {
		t.Fatalf("hot objects not placed: %v", residents)
	}
	if has("cold") {
		t.Fatalf("cold object placed: %v", residents)
	}
	if res.Ranks[0].OverheadNS <= 0 {
		t.Fatal("runtime overhead must be accounted")
	}
}

func TestBeatsNVMOnlyAndApproachesDRAM(t *testing.T) {
	w := tinyWorkload(20)
	m := nvmMachine()
	dramM := m.WithNVMLatencyFactor(1).WithNVMBandwidthFraction(1)
	dram, err := app.Run(w, dramM, app.Options{Ranks: 1}, app.NewStaticFactory("dram", nil))
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := app.Run(w, m, app.Options{Ranks: 1}, app.NewStaticFactory("nvm", nil))
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := run(t, w, m, core.DefaultConfig())
	if uni.TimeNS >= nvm.TimeNS {
		t.Fatalf("unimem %d not better than nvm-only %d", uni.TimeNS, nvm.TimeNS)
	}
	if float64(uni.TimeNS) > 1.25*float64(dram.TimeNS) {
		t.Fatalf("unimem %.2fx of dram-only, want <= 1.25x",
			float64(uni.TimeNS)/float64(dram.TimeNS))
	}
}

func TestInitialPlacementUsesHints(t *testing.T) {
	w := tinyWorkload(1) // single iteration: only initial placement acts
	cfg := core.DefaultConfig()
	_, rt := run(t, w, nvmMachine(), cfg)
	res := rt.DRAMResidents()
	// hot (hint 3e6) and chase (5e5) fit in 224MB; cold has no hint.
	found := map[string]bool{}
	for _, r := range res {
		found[r] = true
	}
	if !found["hot"] || !found["chase"] || found["cold"] {
		t.Fatalf("initial placement wrong: %v", res)
	}
}

func TestInitialPlacementDisabled(t *testing.T) {
	w := tinyWorkload(1)
	cfg := core.DefaultConfig()
	cfg.EnableInitial = false
	_, rt := run(t, w, nvmMachine(), cfg)
	if len(rt.DRAMResidents()) != 0 {
		t.Fatalf("nothing should be in DRAM without initial placement: %v", rt.DRAMResidents())
	}
}

func TestNoSearchesMeansNoMovement(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnableGlobal = false
	cfg.EnableLocal = false
	cfg.EnableInitial = false
	cfg.EnablePartition = false
	res, rt := run(t, tinyWorkload(8), nvmMachine(), cfg)
	if res.Ranks[0].Migrations.Migrations != 0 {
		t.Fatalf("%d migrations with all techniques disabled", res.Ranks[0].Migrations.Migrations)
	}
	if rt.Plan() == nil || rt.Plan().Strategy != "none" {
		t.Fatal("expected the none-plan")
	}
}

func TestPartitioningSplitsLargeObjects(t *testing.T) {
	w := &workloads.Workload{
		Name: "bigobj", Class: "C", Ranks: 1, Iterations: 6,
		Objects: []workloads.ObjectSpec{
			{Name: "huge", Size: 512 << 20, Partitionable: true},
		},
		Phases: []workloads.Phase{
			{Name: "sweep", Kind: phase.Compute, Flops: 20e6,
				Epochs: workloads.Static(phase.Ref{Object: "huge", Accesses: 6e6, ReadFrac: 0.6, Pattern: machine.Stream})},
			{Name: "sync", Kind: phase.Comm, Comm: workloads.CommBarrier},
		},
	}
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5) // DRAM 256MB < 512MB object
	cfg := core.DefaultConfig()
	res, _ := run(t, w, m, cfg)
	withPart := res.Ranks[0].Migrations.BytesMigrated
	if withPart == 0 {
		t.Fatal("partitioning should let chunks of an oversized object migrate")
	}
	cfg.EnablePartition = false
	res2, _ := run(t, w, m, cfg)
	if res2.Ranks[0].Migrations.BytesMigrated != 0 {
		t.Fatal("an oversized unpartitioned object cannot migrate at all")
	}
	if res.TimeNS >= res2.TimeNS {
		t.Fatalf("partitioning should pay off: with=%d without=%d", res.TimeNS, res2.TimeNS)
	}
}

func TestVariationTriggersReprofile(t *testing.T) {
	// Pattern drift halfway through: the workload's hot object switches,
	// which must trip the >10% monitor and produce a second decision.
	w := &workloads.Workload{
		Name: "drifty", Class: "C", Ranks: 1, Iterations: 24,
		Objects: []workloads.ObjectSpec{
			{Name: "早", Size: 96 << 20},
			{Name: "晚", Size: 96 << 20},
		},
		Phases: []workloads.Phase{
			{Name: "work", Kind: phase.Compute, Flops: 10e6,
				Epochs: []workloads.RefEpoch{
					{From: 0, Refs: []phase.Ref{{Object: "早", Accesses: 2e6, ReadFrac: 0.7, Pattern: machine.Stream}}},
					{From: 12, Refs: []phase.Ref{{Object: "晚", Accesses: 2e6, ReadFrac: 0.7, Pattern: machine.Stream}}},
				}},
			{Name: "sync", Kind: phase.Comm, Comm: workloads.CommBarrier},
		},
	}
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5).WithDRAMCapacity(128 << 20)
	_, rt := run(t, w, m, core.DefaultConfig())
	if rt.Decisions < 2 {
		t.Fatalf("decisions = %d, want >= 2 (drift must re-profile)", rt.Decisions)
	}
	res := rt.DRAMResidents()
	if len(res) != 1 || res[0] != "晚" {
		t.Fatalf("placement should follow the drift: %v", res)
	}
}

func TestStationaryWorkloadDoesNotReprofile(t *testing.T) {
	_, rt := run(t, tinyWorkload(30), nvmMachine(), core.DefaultConfig())
	if rt.Decisions != 1 {
		t.Fatalf("stationary workload re-profiled: %d decisions", rt.Decisions)
	}
}

func TestMoverStatsExposed(t *testing.T) {
	// Disable initial placement so adoption has real migrations to do.
	cfg := core.DefaultConfig()
	cfg.EnableInitial = false
	_, rt := run(t, tinyWorkload(10), nvmMachine(), cfg)
	st := rt.MoverStats()
	if st.Enqueued == 0 {
		t.Fatal("no mover activity recorded")
	}
	if f := st.OverlapFrac(); f < 0 || f > 1 {
		t.Fatalf("overlap fraction %v out of range", f)
	}
}

func TestDeclareDep(t *testing.T) {
	cfg := core.DefaultConfig()
	var rt *core.Runtime
	w := tinyWorkload(6)
	_, err := app.Run(w, nvmMachine(), app.Options{Ranks: 1}, func(rank int) app.Manager {
		rt = core.NewRuntime(rank, cfg)
		rt.DeclareDep("hot", 1) // directive: phase 1 also touches hot
		return rt
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Decisions != 1 {
		t.Fatalf("decisions = %d", rt.Decisions)
	}
}

func TestRuntimeOverheadWithinPaperBounds(t *testing.T) {
	res, _ := run(t, tinyWorkload(40), nvmMachine(), core.DefaultConfig())
	frac := res.Ranks[0].OverheadNS / float64(res.Ranks[0].TimeNS)
	if frac > 0.04 {
		t.Fatalf("pure runtime cost %.1f%%, paper reports <= 3%%", frac*100)
	}
}

// TestTieredPlacementDisabled pins the multi-tier analogue of the two-tier
// "none" plan: with both searches disabled the runtime must decide, but
// keep every object where it started (no migrations).
func TestTieredPlacementDisabled(t *testing.T) {
	m := machine.PlatformHBMDDRNVM()
	w := workloads.NewCG("C", 2)
	cfg := core.DefaultConfig()
	cfg.EnableGlobal, cfg.EnableLocal = false, false
	var mu sync.Mutex
	var rts []*core.Runtime
	res, err := app.Run(w, m, app.Options{Ranks: 2}, func(rank int) app.Manager {
		r := core.NewRuntime(rank, cfg)
		mu.Lock()
		rts = append(rts, r)
		mu.Unlock()
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations() != 0 {
		t.Fatalf("disabled placement migrated %d times", res.TotalMigrations())
	}
	for _, rt := range rts {
		tp := rt.TierPlan()
		if tp == nil || tp.Solver != "none" {
			t.Fatalf("expected a 'none' tier plan, got %+v", tp)
		}
	}
}
