package core

import (
	"sort"
	"testing"

	"unimem/internal/app"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/workloads"
)

// TestChunkTableAndDeclaredDeps: Setup ranks the chunks by name, so a
// partitioned object's x[10] ranks before x[2], maps each heap ID to that
// rank, and resolves DeclareDep names whether the directive came before
// Setup or after it.
func TestChunkTableAndDeclaredDeps(t *testing.T) {
	m := machine.PlatformA()
	w := &workloads.Workload{Name: "t", Ranks: 1, Iterations: 1, Objects: []workloads.ObjectSpec{
		{Name: "x", Size: 12 << 20, Partitionable: true},
		{Name: "b", Size: 1 << 20},
	}}
	cfg := DefaultConfig()
	cfg.PartitionMinBytes, cfg.ChunkSize = 1<<20, 1<<20
	r := NewRuntime(0, cfg)
	r.DeclareDep("b", 2)
	r.DeclareDep("missing", 0)
	ctx := &app.RankCtx{Mach: m, Heap: memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{}), W: w}
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if len(r.names) != 13 || !sort.StringsAreSorted(r.names) {
		t.Fatalf("chunk names %v: want 13, sorted", r.names)
	}
	if r.names[2] != "x[10]" || r.names[4] != "x[1]" || r.names[5] != "x[2]" {
		t.Fatalf("name ranks %v", r.names)
	}
	for i, c := range r.chunks {
		if r.rankOf[c.ID] != i || r.names[i] != c.Name() || r.sizes[i] != c.Size {
			t.Fatalf("rank %d holds chunk %d (%s), rankOf %d", i, c.ID, c.Name(), r.rankOf[c.ID])
		}
	}
	r.DeclareDep("x[10]", 1)
	b, x10 := r.rankOfName("b"), r.rankOfName("x[10]")
	if b != 0 || x10 != 2 || r.rankOfName("missing") != -1 {
		t.Fatalf("rankOfName: b=%d x[10]=%d", b, x10)
	}
	for _, tc := range []struct {
		chunk, phase int
		want         bool
	}{{b, 2, true}, {b, -1, true}, {b, 1, false}, {x10, 1, true}, {x10, 2, false}, {1, -1, false}} {
		if got := r.declaredDep(tc.chunk, tc.phase); got != tc.want {
			t.Errorf("declaredDep(%s, %d) = %v, want %v", r.names[tc.chunk], tc.phase, got, tc.want)
		}
	}
}
