package memsys

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"unimem/internal/machine"
)

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(1000)
	off1, err := a.Alloc(100)
	if err != nil || off1 != 0 {
		t.Fatalf("first alloc: off=%d err=%v", off1, err)
	}
	off2, err := a.Alloc(200)
	if err != nil || off2 != 100 {
		t.Fatalf("second alloc: off=%d err=%v", off2, err)
	}
	if a.Used() != 300 || a.Avail() != 700 {
		t.Fatalf("used=%d avail=%d", a.Used(), a.Avail())
	}
	a.Free(off1, 100)
	if a.Used() != 200 {
		t.Fatalf("used after free = %d", a.Used())
	}
	// First-fit should reuse the hole.
	off3, err := a.Alloc(50)
	if err != nil || off3 != 0 {
		t.Fatalf("hole reuse: off=%d err=%v", off3, err)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(100)
	if _, err := a.Alloc(101); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized alloc: %v", err)
	}
	if _, err := a.Alloc(100); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("alloc from full arena: %v", err)
	}
}

func TestArenaFragmentationAndCoalescing(t *testing.T) {
	a := NewArena(300)
	o1, _ := a.Alloc(100)
	o2, _ := a.Alloc(100)
	o3, _ := a.Alloc(100)
	a.Free(o1, 100)
	a.Free(o3, 100)
	if a.FreeRuns() != 2 {
		t.Fatalf("free runs = %d, want 2 (fragmented)", a.FreeRuns())
	}
	// A 200-byte request cannot be satisfied despite 200 free bytes.
	if _, err := a.Alloc(200); !errors.Is(err, ErrNoSpace) {
		t.Fatal("fragmented arena should refuse contiguous 200")
	}
	a.Free(o2, 100)
	if a.FreeRuns() != 1 {
		t.Fatalf("free runs after coalescing = %d, want 1", a.FreeRuns())
	}
	if _, err := a.Alloc(300); err != nil {
		t.Fatalf("full-capacity alloc after coalesce: %v", err)
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(100)
	off, _ := a.Alloc(50)
	a.Free(off, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	a.Free(off, 50)
}

// TestArenaInvariant property-checks that any interleaving of allocs and
// frees preserves used+free accounting and never hands out overlapping
// extents.
func TestArenaInvariant(t *testing.T) {
	type op struct {
		Size uint16
	}
	f := func(ops []op) bool {
		a := NewArena(1 << 16)
		type ext struct{ off, size int64 }
		var live []ext
		for i, o := range ops {
			size := int64(o.Size%2048) + 1
			if i%3 == 2 && len(live) > 0 {
				// Free the oldest live extent.
				e := live[0]
				live = live[1:]
				a.Free(e.off, e.size)
				continue
			}
			off, err := a.Alloc(size)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				return false
			}
			for _, e := range live {
				if off < e.off+e.size && e.off < off+size {
					return false // overlap
				}
			}
			live = append(live, ext{off, size})
		}
		var used int64
		for _, e := range live {
			used += e.size
		}
		return used == a.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeServiceBudget(t *testing.T) {
	s := NewNodeService(1000)
	if _, err := s.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(500); !errors.Is(err, ErrNoSpace) {
		t.Fatal("over-budget alloc should fail")
	}
	// Page-budget accounting: no fragmentation — 400 still fits.
	if _, err := s.Alloc(400); err != nil {
		t.Fatalf("budget has room: %v", err)
	}
	s.Free(0, 600)
	if s.Used() != 400 || s.Avail() != 600 {
		t.Fatalf("used=%d avail=%d", s.Used(), s.Avail())
	}
}

func TestNodeServiceConcurrentRanks(t *testing.T) {
	// Many goroutine "ranks" hammer one node service; the invariant is
	// that the budget never goes negative or over capacity.
	s := NewNodeService(1 << 20)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, err := s.Alloc(128); err == nil {
					s.Free(0, 128)
				}
			}
		}()
	}
	wg.Wait()
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes", s.Used())
	}
}

func newTestHeap(t *testing.T, dram int64) *Heap {
	t.Helper()
	m := machine.PlatformA().WithDRAMCapacity(dram)
	return NewHeap(m, NewNodeTiers(m), HeapOptions{})
}

func TestHeapAllocAndLookup(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, err := h.Alloc("x", 10<<20, AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	if h.Lookup("x") != o {
		t.Fatal("lookup failed")
	}
	if len(o.Chunks) != 1 {
		t.Fatalf("unpartitioned object has %d chunks", len(o.Chunks))
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("initial tier wrong")
	}
	if _, err := h.Alloc("x", 1<<20, AllocOptions{}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestHeapDRAMFallback(t *testing.T) {
	h := newTestHeap(t, 8<<20)
	// Requesting DRAM beyond capacity falls back to NVM.
	o, err := h.Alloc("big", 32<<20, AllocOptions{InitialTier: machine.DRAM})
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("oversized DRAM request should fall back to NVM")
	}
}

func TestHeapPartitioning(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, err := h.Alloc("p", 100<<20, AllocOptions{
		Partitionable: true, ChunkSize: 32 << 20, InitialTier: machine.NVM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Chunks) != 4 { // 32+32+32+4
		t.Fatalf("chunk count = %d, want 4", len(o.Chunks))
	}
	var total int64
	for i, c := range o.Chunks {
		total += c.Size
		if c.Index != i {
			t.Errorf("chunk %d has index %d", i, c.Index)
		}
		if c.Name() == o.Name {
			t.Error("partitioned chunks need indexed names")
		}
	}
	if total != o.Size {
		t.Fatalf("chunk sizes sum to %d, want %d", total, o.Size)
	}
	if o.Chunks[3].Size != 4<<20 {
		t.Fatalf("tail chunk size = %d", o.Chunks[3].Size)
	}
}

// TestChunkIDsDenseInAllocationOrder: chunk IDs count up from 0 across
// objects in allocation order, are never reused after a Free, and each
// chunk's name is fixed at allocation.
func TestChunkIDsDenseInAllocationOrder(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	a, err := h.Alloc("a", 8<<20, AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Alloc("p", 100<<20, AllocOptions{Partitionable: true, ChunkSize: 32 << 20, InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	h.Free(a)
	b, err := h.Alloc("b", 8<<20, AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	chunks := append(append([]*Chunk{a.Chunks[0]}, p.Chunks...), b.Chunks[0])
	names := []string{"a", "p[0]", "p[1]", "p[2]", "p[3]", "b"}
	for i, c := range chunks {
		if c.ID != i || c.Name() != names[i] {
			t.Errorf("chunk %d: ID %d name %q, want ID %d name %q", i, c.ID, c.Name(), i, names[i])
		}
	}
}

func TestMoveChunkUpdatesTierAndStats(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, _ := h.Alloc("m", 1<<20, AllocOptions{InitialTier: machine.NVM})
	c := o.Chunks[0]

	n, err := h.MoveChunk(c, machine.DRAM)
	if err != nil || n != 1<<20 {
		t.Fatalf("move: n=%d err=%v", n, err)
	}
	if c.Tier() != machine.DRAM {
		t.Fatal("tier not updated")
	}
	// Idempotent move.
	n, err = h.MoveChunk(c, machine.DRAM)
	if n != 0 || err != nil {
		t.Fatalf("no-op move: n=%d err=%v", n, err)
	}
	st := h.StatsSnapshot()
	if st.Migrations != 1 || st.BytesMigrated != 1<<20 || st.ToDRAM != 1 || st.PointerRewrite != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMoveChunkNoSpace(t *testing.T) {
	h := newTestHeap(t, 4<<20)
	o, _ := h.Alloc("m", 8<<20, AllocOptions{InitialTier: machine.NVM})
	_, err := h.MoveChunk(o.Chunks[0], machine.DRAM)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("failed move must leave chunk in place")
	}
	if h.StatsSnapshot().FailedNoSpace != 1 {
		t.Fatal("failure not counted")
	}
}

func TestMoveObjectAllChunks(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, _ := h.Alloc("p", 48<<20, AllocOptions{
		Partitionable: true, ChunkSize: 16 << 20, InitialTier: machine.NVM,
	})
	n, err := h.MoveObject(o, machine.DRAM)
	if err != nil || n != 48<<20 {
		t.Fatalf("move object: n=%d err=%v", n, err)
	}
	if !o.InDRAM() {
		t.Fatal("object should be fully DRAM-resident")
	}
	if o.BytesIn(machine.NVM) != 0 {
		t.Fatal("no bytes should remain in NVM")
	}
}

func TestFreeReleasesSpace(t *testing.T) {
	h := newTestHeap(t, 16<<20)
	o, _ := h.Alloc("f", 12<<20, AllocOptions{InitialTier: machine.DRAM})
	if h.DRAMService().Used() != 12<<20 {
		t.Fatal("DRAM not reserved")
	}
	h.Free(o)
	if h.DRAMService().Used() != 0 {
		t.Fatal("Free must release DRAM")
	}
	if h.Lookup("f") != nil {
		t.Fatal("freed object still registered")
	}
	if _, err := h.Alloc("f", 1<<20, AllocOptions{}); err != nil {
		t.Fatalf("name should be reusable after Free: %v", err)
	}
}

func TestConcurrentMoveAndRead(t *testing.T) {
	// Helper-thread-style concurrent migration against residency readers;
	// run with -race to validate the locking discipline.
	h := newTestHeap(t, 64<<20)
	o, _ := h.Alloc("c", 1<<20, AllocOptions{InitialTier: machine.NVM})
	c := o.Chunks[0]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.MoveChunk(c, machine.DRAM)
			h.MoveChunk(c, machine.NVM)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = h.TierOf(c)
			_ = h.TierResidencyBytes()
		}
	}()
	wg.Wait()
}

func TestMultiTierHeap(t *testing.T) {
	m := machine.PlatformHBMDDRNVM()
	h := NewHeap(m, NewNodeTiers(m), HeapOptions{})
	slow := m.SlowestIdx()
	// Default (zero-option) placement with InitialTier 0 cascades down the
	// hierarchy when the fast tiers are full.
	big, err := h.Alloc("big", m.Tier(0).CapacityBytes+m.Tier(1).CapacityBytes, AllocOptions{InitialTier: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Chunks[0].Tier(); got != slow {
		t.Fatalf("oversized object landed in tier %d, want slowest %d", got, slow)
	}
	// A mid-tier allocation stays in the middle tier.
	mid, err := h.Alloc("mid", 64<<20, AllocOptions{InitialTier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Chunks[0].Tier() != 1 {
		t.Fatalf("mid-tier object in tier %d", mid.Chunks[0].Tier())
	}
	// Tier-to-tier migration records per-tier arrivals and promotion counts.
	if _, err := h.MoveChunk(mid.Chunks[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MoveChunk(mid.Chunks[0], slow); err != nil {
		t.Fatal(err)
	}
	st := h.StatsSnapshot()
	if st.Migrations != 2 || st.ToDRAM != 1 || st.ToNVM != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.ToTier[0] != 1 || st.ToTier[slow] != 1 {
		t.Fatalf("per-tier arrivals %v", st.ToTier)
	}
	// Chunks carry real tier indices.
	if h.TierOf(mid.Chunks[0]) != slow || h.TierOf(big.Chunks[0]) != slow {
		t.Fatalf("chunks in tiers %d and %d, want %d", h.TierOf(mid.Chunks[0]), h.TierOf(big.Chunks[0]), slow)
	}
	res := h.TierResidencyBytes()
	if res[0] != 0 || res[1] != 0 || res[slow] != big.Size+mid.Size {
		t.Fatalf("per-tier residency %v", res)
	}
}

func TestNodeTiersSharedAcrossRanks(t *testing.T) {
	// Two heaps on one node share the fast-tier allowances but keep
	// private slowest-tier arenas.
	m := machine.PlatformHBMDDRNVM()
	node := NewNodeTiers(m)
	h1 := NewHeap(m, node, HeapOptions{})
	h2 := NewHeap(m, node, HeapOptions{})
	cap0 := m.Tier(0).CapacityBytes
	if _, err := h1.Alloc("a", cap0, AllocOptions{InitialTier: 0}); err != nil {
		t.Fatal(err)
	}
	o, err := h2.Alloc("b", cap0, AllocOptions{InitialTier: 0})
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunks[0].Tier() != 1 {
		t.Fatalf("rank 2 should cascade to the mid tier, got %d", o.Chunks[0].Tier())
	}
	if node.Service(0).Used() != cap0 || node.Service(1).Used() != cap0 {
		t.Fatalf("shared services wrong: %d %d", node.Service(0).Used(), node.Service(1).Used())
	}
	if h1.NVMUsed() != 0 || h2.NVMUsed() != 0 {
		t.Fatalf("private slowest arenas should be empty: %d %d", h1.NVMUsed(), h2.NVMUsed())
	}
}

func TestAllocRejectsUnknownTier(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	if _, err := h.Alloc("oob", 1<<20, AllocOptions{InitialTier: 2}); err == nil {
		t.Fatal("out-of-range InitialTier must error, not return (nil, nil)")
	}
	if _, err := h.Alloc("neg", 1<<20, AllocOptions{InitialTier: -1}); err == nil {
		t.Fatal("negative InitialTier must error")
	}
}
