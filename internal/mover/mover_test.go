package mover

import (
	"testing"

	"unimem/internal/machine"
	"unimem/internal/memsys"
)

func testHeap() *memsys.Heap {
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	return memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
}

func TestMoveCompletesAndAccounts(t *testing.T) {
	h := testHeap()
	o, _ := h.Alloc("a", 32<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()

	seq := mv.Enqueue(o.Chunks[0], machine.DRAM, 0)
	stall := mv.Sync(seq, 0)
	if h.TierOf(o.Chunks[0]) != machine.DRAM {
		t.Fatal("chunk not migrated")
	}
	// Enqueued at t=0 and needed at t=0: the whole copy is exposed.
	want := int64(h.Mach.CopyTimeNS(32 << 20))
	if stall != want {
		t.Fatalf("stall %d, want %d", stall, want)
	}
	st := mv.Stats()
	if st.Completed != 1 || st.BytesMoved != 32<<20 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.OverlapFrac() > 1e-6 { // int64 stall truncation leaves float dust
		t.Fatalf("overlap %v, want ~0", st.OverlapFrac())
	}
}

func TestFullyOverlappedMove(t *testing.T) {
	h := testHeap()
	o, _ := h.Alloc("a", 16<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()

	seq := mv.Enqueue(o.Chunks[0], machine.DRAM, 0)
	// Sync far in the virtual future: the copy hid entirely.
	copyNS := int64(h.Mach.CopyTimeNS(16 << 20))
	if stall := mv.Sync(seq, copyNS*10); stall != 0 {
		t.Fatalf("stall %d, want 0", stall)
	}
	if f := mv.Stats().OverlapFrac(); f != 1 {
		t.Fatalf("overlap %v, want 1", f)
	}
}

func TestFIFOSerialization(t *testing.T) {
	h := testHeap()
	a, _ := h.Alloc("a", 16<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	b, _ := h.Alloc("b", 16<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()

	mv.Enqueue(a.Chunks[0], machine.DRAM, 0)
	seqB := mv.Enqueue(b.Chunks[0], machine.DRAM, 0)
	stall := mv.Sync(seqB, 0)
	// b starts only after a finishes: exposed cost is two copies.
	want := int64(2 * h.Mach.CopyTimeNS(16<<20))
	if stall != want {
		t.Fatalf("stall %d, want %d (FIFO)", stall, want)
	}
}

func TestFailedMoveReported(t *testing.T) {
	m := machine.PlatformA().WithDRAMCapacity(1 << 20)
	h := memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
	o, _ := h.Alloc("big", 64<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()

	seq := mv.Enqueue(o.Chunks[0], machine.DRAM, 0)
	if stall := mv.Sync(seq, 0); stall != 0 {
		t.Fatalf("failed move should not stall, got %d", stall)
	}
	st := mv.Stats()
	if st.Failed != 1 || st.Completed != 0 || st.BytesMoved != 0 {
		t.Fatalf("stats %+v", st)
	}
	if h.TierOf(o.Chunks[0]) != machine.NVM {
		t.Fatal("failed move must leave chunk in NVM")
	}
}

func TestSyncZeroIsCheapCheck(t *testing.T) {
	h := testHeap()
	mv := New(h)
	defer mv.Stop()
	if stall := mv.Sync(0, 12345); stall != 0 {
		t.Fatalf("empty sync stalled %d", stall)
	}
	if mv.Stats().SyncChecks != 1 {
		t.Fatal("sync check not counted")
	}
}

func TestStopDrains(t *testing.T) {
	h := testHeap()
	mv := New(h)
	objs := make([]*memsys.Object, 8)
	for i := range objs {
		objs[i], _ = h.Alloc(string(rune('a'+i)), 4<<20, memsys.AllocOptions{InitialTier: machine.NVM})
		mv.Enqueue(objs[i].Chunks[0], machine.DRAM, 0)
	}
	mv.Stop()
	for i, o := range objs {
		if h.TierOf(o.Chunks[0]) != machine.DRAM {
			t.Fatalf("object %d not migrated before Stop returned", i)
		}
	}
	if mv.Stats().Completed != 8 {
		t.Fatalf("completed %d, want 8", mv.Stats().Completed)
	}
	// Stop is idempotent: a second call finds nothing to apply.
	mv.Stop()
	if mv.Stats().Completed != 8 || !mv.Idle() {
		t.Fatalf("second Stop changed state: %+v", mv.Stats())
	}
}

func TestHelperTimelineAdvances(t *testing.T) {
	h := testHeap()
	a, _ := h.Alloc("a", 8<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()

	// Enqueue at t=1e6: copy occupies [1e6, 1e6+copy).
	seq := mv.Enqueue(a.Chunks[0], machine.DRAM, 1e6)
	copyNS := int64(h.Mach.CopyTimeNS(8 << 20))
	if stall := mv.Sync(seq, 1e6); stall != copyNS {
		t.Fatalf("stall %d, want %d", stall, copyNS)
	}
	// A later move starts no earlier than its enqueue time even though the
	// helper is free.
	b, _ := h.Alloc("b", 8<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	now := int64(1e9)
	seq = mv.Enqueue(b.Chunks[0], machine.DRAM, now)
	if stall := mv.Sync(seq, now); stall != copyNS {
		t.Fatalf("late-enqueue stall %d, want %d", stall, copyNS)
	}
}

func TestRoundTrip(t *testing.T) {
	h := testHeap()
	o, _ := h.Alloc("rt", 8<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	mv := New(h)
	defer mv.Stop()
	s1 := mv.Enqueue(o.Chunks[0], machine.DRAM, 0)
	s2 := mv.Enqueue(o.Chunks[0], machine.NVM, 0)
	mv.Sync(s2, 1<<62)
	_ = s1
	if h.TierOf(o.Chunks[0]) != machine.NVM {
		t.Fatal("round trip should end in NVM")
	}
	if mv.Stats().Completed != 2 {
		t.Fatalf("completed %d", mv.Stats().Completed)
	}
}

func TestMultiTierMoveUsesEdgeBandwidth(t *testing.T) {
	m := machine.PlatformHBMDDRNVM()
	h := memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
	o, _ := h.Alloc("a", 32<<20, memsys.AllocOptions{InitialTier: 1})
	mv := New(h)
	defer mv.Stop()

	// DDR -> HBM runs on the fast HBM<->DDR edge, not the hierarchy-wide
	// (NVM-limited) copy bandwidth.
	seq := mv.Enqueue(o.Chunks[0], 0, 0)
	stall := mv.Sync(seq, 0)
	want := int64(m.CopyTimeBetweenNS(1, 0, 32<<20))
	if stall != want {
		t.Fatalf("stall %d, want edge copy time %d", stall, want)
	}
	if slow := int64(m.CopyTimeNS(32 << 20)); want >= slow {
		t.Fatalf("edge copy %d should beat slowest-edge copy %d", want, slow)
	}
	if h.TierOf(o.Chunks[0]) != 0 {
		t.Fatal("chunk not promoted")
	}
}
