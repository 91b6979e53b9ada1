package app_test

import (
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

func TestDeterministicRuns(t *testing.T) {
	w := workloads.NewCG("C", 4)
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	r1, err := app.Run(w, m, app.Options{Seed: 9}, core.Factory(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := app.Run(w, m, app.Options{Seed: 9}, core.Factory(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.TimeNS != r2.TimeNS {
		t.Fatalf("same-seed runs diverged: %d vs %d", r1.TimeNS, r2.TimeNS)
	}
	if r1.TotalMigrations() != r2.TotalMigrations() {
		t.Fatalf("migration counts diverged: %d vs %d",
			r1.TotalMigrations(), r2.TotalMigrations())
	}
}

func TestRanksSynchronizedByCollectives(t *testing.T) {
	w := workloads.NewCG("C", 4)
	m := machine.PlatformA()
	res, err := app.Run(w, m, app.Options{}, app.NewStaticFactory("s", nil))
	if err != nil {
		t.Fatal(err)
	}
	// CG ends every iteration with collectives; rank clocks must be close.
	var min, max int64 = 1 << 62, 0
	for _, rr := range res.Ranks {
		if rr.TimeNS < min {
			min = rr.TimeNS
		}
		if rr.TimeNS > max {
			max = rr.TimeNS
		}
	}
	if float64(max-min)/float64(max) > 0.01 {
		t.Fatalf("rank clocks diverged: [%d, %d]", min, max)
	}
}

func TestDRAMOnlyIsLowerBound(t *testing.T) {
	// No manager may beat the DRAM-only machine: it bounds every HMS run.
	for _, name := range workloads.NPBNames {
		w := workloads.NewNPB(name, "C", 4)
		m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
		dm := m.WithNVMLatencyFactor(1).WithNVMBandwidthFraction(1)
		dram, err := app.Run(w, dm, app.Options{}, app.NewStaticFactory("d", nil))
		if err != nil {
			t.Fatal(err)
		}
		uni, err := app.Run(w, m, app.Options{}, core.Factory(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if uni.TimeNS < dram.TimeNS {
			t.Errorf("%s: Unimem (%d) beat DRAM-only (%d)?!", name, uni.TimeNS, dram.TimeNS)
		}
	}
}

func TestPerPhaseTimesRecorded(t *testing.T) {
	w := workloads.NewMG("C", 4)
	res, err := app.Run(w, machine.PlatformA(), app.Options{}, app.NewStaticFactory("s", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseNS) != len(w.Phases) {
		t.Fatalf("recorded %d phase times, want %d", len(res.PhaseNS), len(w.Phases))
	}
	for i, d := range res.PhaseNS {
		if d <= 0 {
			t.Errorf("phase %d (%s) has duration %v", i, w.Phases[i].Name, d)
		}
	}
}

func TestCommTimeAccounted(t *testing.T) {
	w := workloads.NewFT("C", 4) // big all-to-all transposes
	res, err := app.Run(w, machine.PlatformA(), app.Options{}, app.NewStaticFactory("s", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Ranks {
		if rr.CommNS <= 0 {
			t.Fatal("communication time must be accounted")
		}
		if rr.CommNS >= rr.TimeNS {
			t.Fatal("communication cannot exceed total time")
		}
	}
}

func TestSharedNodeDRAM(t *testing.T) {
	// 4 ranks on one node share the node's DRAM allowance: aggregate DRAM
	// residency across ranks must fit one capacity, so each rank places
	// less than it would alone.
	w := workloads.NewCG("C", 4)
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	shared, err := app.Run(w, m, app.Options{RanksPerNode: 4}, core.Factory(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	alone, err := app.Run(w, m, app.Options{RanksPerNode: 1}, core.Factory(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if shared.TimeNS <= alone.TimeNS {
		t.Fatalf("sharing node DRAM among 4 ranks should hurt: shared=%d alone=%d",
			shared.TimeNS, alone.TimeNS)
	}
}

func TestExpandTrafficSplitsChunks(t *testing.T) {
	w := workloads.NewFT("C", 4)
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	var got []string
	_, err := app.Run(w, m, app.Options{}, func(rank int) app.Manager {
		return core.NewRuntime(rank, core.DefaultConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	// The partitioned FT arrays must appear as per-chunk traffic — checked
	// indirectly: a Unimem run migrates chunk-named pieces (see table4
	// test in exp); here we just assert the run completes with chunking on.
}

// TestExpandTrafficReusesBuffer: ExpandTraffic emits one entry per chunk
// carrying the chunk's ID and name, and it fills the rank's reused buffer,
// so once the buffer has grown to a phase's size a repeat call allocates
// nothing.
func TestExpandTrafficReusesBuffer(t *testing.T) {
	m := machine.PlatformA()
	heap := memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
	big, err := heap.Alloc("big", 64<<20, memsys.AllocOptions{Partitionable: true, ChunkSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, err := heap.Alloc("small", 4<<20, memsys.AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &app.RankCtx{Mach: m, Heap: heap}
	refs := []phase.Ref{
		{Object: "small", Accesses: 1000, ReadFrac: 1, Pattern: machine.Random},
		{Object: "big", Accesses: 4000, ReadFrac: 0.5, Pattern: machine.Stream},
	}
	traffic, _ := app.ExpandTraffic(ctx, refs, 1)
	want := append([]*memsys.Chunk{small.Chunks[0]}, big.Chunks...)
	if len(traffic) != len(want) {
		t.Fatalf("%d traffic entries, want %d", len(traffic), len(want))
	}
	for i, c := range want {
		if traffic[i].ID != c.ID || traffic[i].Chunk != c.Name() || traffic[i].Accesses <= 0 {
			t.Errorf("entry %d = %+v, want chunk %d (%s)", i, traffic[i], c.ID, c.Name())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { app.ExpandTraffic(ctx, refs, 0.5) }); allocs != 0 {
		t.Fatalf("a steady-state ExpandTraffic call made %.0f allocations, want 0", allocs)
	}
}
