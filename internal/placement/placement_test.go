package placement

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestKnapsackBasics(t *testing.T) {
	items := []Item{
		{Chunk: "a", Size: 10 << 20, WeightNS: 100},
		{Chunk: "b", Size: 20 << 20, WeightNS: 150},
		{Chunk: "c", Size: 30 << 20, WeightNS: 120},
	}
	chosen, w := Knapsack(items, 32<<20)
	// Best: a+b = 250 within 32 MiB (30 granules used).
	if len(chosen) != 2 || items[chosen[0]].Chunk != "a" || items[chosen[1]].Chunk != "b" {
		t.Fatalf("chosen %v", chosen)
	}
	if w != 250 {
		t.Fatalf("weight %v, want 250", w)
	}
}

func TestKnapsackSkipsNonPositiveAndOversize(t *testing.T) {
	items := []Item{
		{Chunk: "neg", Size: 1 << 20, WeightNS: -5},
		{Chunk: "zero", Size: 1 << 20, WeightNS: 0},
		{Chunk: "big", Size: 100 << 20, WeightNS: 1000},
		{Chunk: "ok", Size: 2 << 20, WeightNS: 10},
	}
	chosen, w := Knapsack(items, 10<<20)
	if len(chosen) != 1 || items[chosen[0]].Chunk != "ok" || w != 10 {
		t.Fatalf("chosen %v w %v", chosen, w)
	}
}

func TestKnapsackEmptyAndZeroCapacity(t *testing.T) {
	if c, w := Knapsack(nil, 1<<30); c != nil || w != 0 {
		t.Fatal("empty items")
	}
	if c, _ := Knapsack([]Item{{Chunk: "a", Size: 1, WeightNS: 1}}, 0); c != nil {
		t.Fatal("zero capacity")
	}
}

// TestKnapsackOptimalSmall brute-forces small instances and compares.
func TestKnapsackOptimalSmall(t *testing.T) {
	type tItem struct {
		Size   uint8
		Weight uint8
	}
	f := func(raw []tItem, capMB uint8) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		items := make([]Item, len(raw))
		for i, r := range raw {
			items[i] = Item{
				Chunk:    string(rune('a' + i)),
				Size:     (int64(r.Size%20) + 1) << 20,
				WeightNS: float64(r.Weight % 50),
			}
		}
		capacity := (int64(capMB%40) + 1) << 20
		_, got := Knapsack(items, capacity)
		// Brute force over all subsets.
		var best float64
		for mask := 0; mask < 1<<len(items); mask++ {
			var size int64
			var w float64
			for i := range items {
				if mask&(1<<i) != 0 && items[i].WeightNS > 0 {
					size += items[i].Size
					w += items[i].WeightNS
				}
			}
			if size <= capacity && w > best {
				best = w
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKnapsackRespectsCapacity(t *testing.T) {
	f := func(sizes []uint8, capMB uint8) bool {
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		items := make([]Item, len(sizes))
		for i, s := range sizes {
			items[i] = Item{Chunk: string(rune('a' + i)), Size: (int64(s%30) + 1) << 20, WeightNS: 1}
		}
		capacity := (int64(capMB%64) + 1) << 20
		chosen, _ := Knapsack(items, capacity)
		var total int64
		for _, i := range chosen {
			total += items[i].Size
		}
		return total <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// knapsackFullWidth is the reference DP over every capacity column, the
// table Knapsack narrows to the candidates' total size.
func knapsackFullWidth(items []Item, capacity int64) ([]int, float64) {
	cap := int(capacity / knapGranularity)
	dp := make([]float64, cap+1)
	take := make([][]bool, len(items))
	sizes := make([]int, len(items))
	for k, it := range items {
		take[k] = make([]bool, cap+1)
		sizes[k] = int((it.Size + knapGranularity - 1) / knapGranularity)
		if it.WeightNS <= 0 || it.Size <= 0 || sizes[k] > cap {
			continue
		}
		for c := cap; c >= sizes[k]; c-- {
			if v := dp[c-sizes[k]] + it.WeightNS; v > dp[c] {
				dp[c] = v
				take[k][c] = true
			}
		}
	}
	var chosen []int
	for k, c := len(items)-1, cap; k >= 0; k-- {
		if take[k][c] {
			chosen = append([]int{k}, chosen...)
			c -= sizes[k]
		}
	}
	return chosen, dp[cap]
}

// TestKnapsackNarrowTableMatchesFullWidth: bounding the DP table by the
// candidates' total size returns exactly the full-width choice and weight,
// float rounding included, whether the candidates fit the capacity with
// room to spare or contend for it.
func TestKnapsackNarrowTableMatchesFullWidth(t *testing.T) {
	type tItem struct {
		Size   uint16
		Weight float64
	}
	f := func(raw []tItem, capMB uint16) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		items := make([]Item, len(raw))
		for i, r := range raw {
			items[i] = Item{Chunk: string(rune('a' + i)), Size: int64(r.Size%(48<<10)) * 1024, WeightNS: r.Weight}
		}
		capacity := int64(capMB%512) << 20
		gotC, gotW := Knapsack(items, capacity)
		wantC, wantW := knapsackFullWidth(items, capacity)
		return reflect.DeepEqual(gotC, wantC) && gotW == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// testInput builds a 4-phase scenario: "hot" is beneficial everywhere,
// "ph0" only in phase 0, "ph2" only in phase 2; DRAM fits two of the three.
func testInput() *Input {
	mb := func(n int64) int64 { return n << 20 }
	copyBW := 5.0e9
	return &Input{
		DRAMCapacity: mb(64),
		ChunkSize:    map[string]int64{"hot": mb(30), "ph0": mb(30), "ph2": mb(30), "tiny": mb(1)},
		Phases: []PhaseData{
			// ph0/ph2 benefits (15 ms) clear the recurrence bar: a 30 MiB
			// round trip at 5 GB/s costs ~12.6 ms of helper occupancy.
			{DurNS: 30e6, Benefit: map[string]float64{"hot": 3e6, "ph0": 15e6, "tiny": 0.1e6}},
			{DurNS: 30e6, Benefit: map[string]float64{"hot": 3e6}},
			{DurNS: 30e6, Benefit: map[string]float64{"hot": 3e6, "ph2": 15e6}},
			{DurNS: 30e6, Benefit: map[string]float64{"hot": 3e6}},
		},
		Resident:   map[string]bool{},
		CopyTimeNS: func(size int64) float64 { return float64(size) / copyBW * 1e9 },
		OverlapNS:  func(chunk string, target int) float64 { return 10e6 },
		TriggerPhase: func(chunk string, target int) int {
			return (target + 3) % 4 // one phase of lead time
		},
		References: func(chunk string, ph int) bool {
			switch chunk {
			case "hot", "tiny":
				return true
			case "ph0":
				return ph == 0
			case "ph2":
				return ph == 2
			}
			return false
		},
		AmortizeIters: 10,
	}
}

func TestGlobalPicksBestStaticSet(t *testing.T) {
	plan := SearchGlobal(testInput())
	// Totals: hot 12e6, ph0 15e6, ph2 15e6; capacity 64MB fits two 30MB
	// objects plus tiny, so the best static set is {ph0, ph2}.
	if !plan.Desired[0]["ph0"] || !plan.Desired[0]["ph2"] {
		t.Fatalf("global should keep the two heaviest objects: %v", plan.Desired[0])
	}
	if len(plan.Schedule) != 0 {
		t.Fatal("global plans have no recurring schedule")
	}
	for p := 1; p < 4; p++ {
		for c := range plan.Desired[0] {
			if !plan.Desired[p][c] {
				t.Fatal("global desired sets must be identical across phases")
			}
		}
	}
}

func TestLocalSwapsPhaseExclusiveObjects(t *testing.T) {
	in := testInput()
	plan := SearchLocal(in)
	if !plan.Desired[0]["ph0"] {
		t.Errorf("local should hold ph0 during phase 0: %v", plan.Desired[0])
	}
	if !plan.Desired[2]["ph2"] {
		t.Errorf("local should hold ph2 during phase 2: %v", plan.Desired[2])
	}
	if !plan.Desired[1]["hot"] || !plan.Desired[3]["hot"] {
		t.Errorf("local should keep hot resident")
	}
}

func TestDecidePrefersBetterPrediction(t *testing.T) {
	in := testInput()
	best, all := DecideAll(in, true, true)
	if len(all) != 2 {
		t.Fatalf("expected 2 candidates, got %d", len(all))
	}
	for _, p := range all {
		if best.PredictedIterNS > p.PredictedIterNS {
			t.Fatalf("Decide picked %s (%v) over better %s (%v)",
				best.Strategy, best.PredictedIterNS, p.Strategy, p.PredictedIterNS)
		}
	}
}

func TestDecideNoneKeepsResidency(t *testing.T) {
	in := testInput()
	in.Resident = map[string]bool{"hot": true}
	plan := Decide(in, false, false)
	if plan.Strategy != "none" {
		t.Fatalf("strategy %s", plan.Strategy)
	}
	for p := range plan.Desired {
		if !plan.Desired[p]["hot"] {
			t.Fatal("none-plan must keep current residency")
		}
	}
	if len(plan.Adoption) != 0 || len(plan.Schedule) != 0 {
		t.Fatal("none-plan must not move anything")
	}
}

func TestAdoptionMovesReachDesired0(t *testing.T) {
	in := testInput()
	in.Resident = map[string]bool{"stale": true}
	in.ChunkSize["stale"] = 30 << 20
	plan := SearchGlobal(in)
	foundEvict := false
	for _, mv := range plan.Adoption {
		if mv.Chunk == "stale" && !mv.ToDRAM {
			foundEvict = true
		}
		if mv.ToDRAM && !plan.Desired[0][mv.Chunk] {
			t.Errorf("adoption inserts %s which is not desired", mv.Chunk)
		}
	}
	if !foundEvict {
		t.Error("stale resident must be evicted at adoption")
	}
}

func TestScheduleEvictionsBeforeInsertionsPerPhase(t *testing.T) {
	plan := SearchLocal(testInput())
	seenInsert := map[int]bool{}
	for _, mv := range plan.Schedule {
		if mv.ToDRAM {
			seenInsert[mv.TriggerPhase] = true
		} else if seenInsert[mv.TriggerPhase] {
			t.Fatalf("eviction after insertion at phase %d: %v", mv.TriggerPhase, plan.Schedule)
		}
	}
}

func TestScheduleTriggerPrecedesTarget(t *testing.T) {
	plan := SearchLocal(testInput())
	n := len(plan.Desired)
	for _, mv := range plan.Schedule {
		if !mv.ToDRAM {
			continue
		}
		// The chunk must be out of the desired set at the trigger phase
		// (it cannot arrive before its own departure).
		if mv.TriggerPhase != mv.TargetPhase && plan.Desired[mv.TriggerPhase][mv.Chunk] {
			t.Errorf("move %v triggered while still desired-resident", mv)
		}
		steps := ((mv.TargetPhase-mv.TriggerPhase)%n + n) % n
		if steps >= n {
			t.Errorf("move %v trigger wraps a full cycle", mv)
		}
	}
}

func TestLocalHysteresisAvoidsMarginalChurn(t *testing.T) {
	in := testInput()
	// Make ph0/ph2 benefits marginal: below round-trip copy cost (30MB at
	// 5GB/s = 6ms each way).
	in.Phases[0].Benefit["ph0"] = 2e6
	in.Phases[2].Benefit["ph2"] = 2e6
	plan := SearchLocal(in)
	for _, mv := range plan.Schedule {
		if mv.Chunk == "ph0" || mv.Chunk == "ph2" {
			t.Fatalf("marginal object scheduled for churn: %v", mv)
		}
	}
}

func TestPredictIterIncludesStalls(t *testing.T) {
	in := testInput()
	// Zero-lead triggers: every insertion is late by its copy time.
	in.TriggerPhase = func(chunk string, target int) int { return target }
	local := SearchLocal(in)
	if len(local.Schedule) > 0 {
		// Stalls must be reflected: predicted must exceed the no-move sum
		// of (base - benefits).
		base := 0.0
		for p, pd := range in.Phases {
			base += pd.DurNS
			for c, b := range pd.Benefit {
				if local.Desired[p][c] {
					base -= b
				}
			}
		}
		if local.PredictedIterNS < base {
			t.Fatalf("prediction %v below benefit-only bound %v", local.PredictedIterNS, base)
		}
	}
}

func TestMoveString(t *testing.T) {
	mv := Move{Chunk: "x", ToDRAM: true, TriggerPhase: 1, TargetPhase: 2}
	if mv.String() != "x->DRAM@p1(for p2)" {
		t.Fatalf("String() = %q", mv.String())
	}
}

func TestSinglePhaseWorkload(t *testing.T) {
	in := &Input{
		DRAMCapacity: 64 << 20,
		ChunkSize:    map[string]int64{"a": 32 << 20},
		Phases:       []PhaseData{{DurNS: 20e6, Benefit: map[string]float64{"a": 10e6}}},
		Resident:     map[string]bool{},
		CopyTimeNS:   func(size int64) float64 { return float64(size) / 5 },
		OverlapNS:    func(string, int) float64 { return 0 },
	}
	for _, plan := range []*Plan{SearchGlobal(in), SearchLocal(in)} {
		if !plan.Desired[0]["a"] {
			t.Errorf("%s: single-phase hot object not placed", plan.Strategy)
		}
		if len(plan.Schedule) != 0 {
			t.Errorf("%s: single-phase plan should have no recurring moves", plan.Strategy)
		}
	}
}
