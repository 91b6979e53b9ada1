package app

import (
	"reflect"
	"testing"

	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/mpisim"
	"unimem/internal/workloads"
)

// steadyMgr is a FastPather that is always quiescent.
type steadyMgr struct{}

func (steadyMgr) SteadyState() bool { return true }
func (steadyMgr) FastForward(int)   {}

// TestFastPathStreaks pins the stability signal the fast-forward vote
// consumes, the per-rank streak keyed by (content epoch, placement
// generation): repeated keys grow it, an epoch boundary restarts it at 1,
// a tier change between two phases' traffic zeroes it, a tier change
// before the first or after the last phase's traffic restarts it at 1
// or leaves it alone, and a same-tier no-op move changes nothing.
func TestFastPathStreaks(t *testing.T) {
	m := machine.PlatformA()
	heap := memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
	obj, err := heap.Alloc("a", 1<<20, memsys.AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	w := &workloads.Workload{Name: "streaks", Iterations: 15,
		Phases: []workloads.Phase{{Name: "p0"}, {Name: "p1"}}}
	fp := &fastPath{
		rc:      &RankCtx{W: w, Heap: heap},
		mgr:     steadyMgr{},
		epochs:  []int{5},
		lastDur: make([]float64, len(w.Phases)),
	}
	// moves[iter] = {position, tier}: before phase position's traffic
	// (position 2: after the last phase's).
	type move struct {
		pos int
		to  machine.TierKind
	}
	moves := map[int]move{
		7:  {1, machine.DRAM}, // between the two phases
		10: {0, machine.NVM},  // before any traffic
		12: {1, machine.NVM},  // already there: no tier change
		13: {2, machine.DRAM}, // after all traffic
	}
	var got []int
	mpisim.NewWorld(1, m).Run(func(c *mpisim.Comm) {
		for iter := 0; iter < w.Iterations; iter++ {
			fp.beginIter(c)
			for pi := 0; pi <= len(w.Phases); pi++ {
				if mv, ok := moves[iter]; ok && mv.pos == pi {
					if _, err := heap.MoveChunk(obj.Chunks[0], mv.to); err != nil {
						t.Errorf("iteration %d: %v", iter, err)
					}
				}
				if pi < len(w.Phases) {
					fp.beforeTraffic(pi)
					c.Advance(10)
				}
			}
			fp.endIter(c, iter)
			got = append(got, fp.streak)
		}
	})
	// 0-4 share epoch 0; 5 starts epoch 1. The move inside 7 zeroes the
	// streak and 8 restarts it; 10 ran entirely under its new placement;
	// 13's traffic was all priced before its move, which 14 then sees.
	want := []int{1, 2, 3, 4, 5, 1, 2, 0, 1, 2, 1, 2, 3, 4, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streaks = %v, want %v", got, want)
	}
}

// TestFastPathScanEpochs: the scan accepts a window only when its first
// iteration lies in the last simulated iteration's content epoch, and ends
// it at the next epoch (or the end of the run).
func TestFastPathScanEpochs(t *testing.T) {
	w := &workloads.Workload{Name: "scan", Iterations: 10}
	fp := &fastPath{rc: &RankCtx{W: w}, epochs: []int{4, 6}}
	cases := []struct {
		lastEpoch, iter, want int
	}{
		{0, 2, 2}, // window [2, 4)
		{0, 4, 0}, // iter starts the next epoch
		{0, 7, 0}, // iter lies two epochs later
		{1, 5, 1}, // window [5, 6)
		{1, 3, 0}, // iter lies in an earlier epoch
		{2, 7, 3}, // the last epoch runs to the end of the run
	}
	for _, c := range cases {
		fp.lastKey.epoch = c.lastEpoch
		if got := fp.scan(c.iter); got != c.want {
			t.Errorf("last epoch %d: scan(%d) = %d, want %d", c.lastEpoch, c.iter, got, c.want)
		}
	}
}
