package placement

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"unimem/internal/xrand"
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
func testInput() *mapInput {
	mb := func(n int64) int64 { return n << 20 }
	copyBW := 5.0e9
	return &mapInput{
		DRAMCapacity: mb(64),
		ChunkSize:    map[string]int64{"hot": mb(30), "ph0": mb(30), "ph2": mb(30), "tiny": mb(1)},
		Phases: []mapPhase{
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

// desired reports whether the plan holds the named chunk in DRAM during
// phase ph.
func desired(plan *Plan, ph int, name string) bool {
	for c, n := range plan.Names {
		if n == name {
			return plan.Desired[ph][c]
		}
	}
	return false
}

func TestGlobalPicksBestStaticSet(t *testing.T) {
	plan := SearchGlobal(testInput().dense())
	// Totals: hot 12e6, ph0 15e6, ph2 15e6; capacity 64MB fits two 30MB
	// objects plus tiny, so the best static set is {ph0, ph2}.
	if !desired(plan, 0, "ph0") || !desired(plan, 0, "ph2") {
		t.Fatalf("global should keep the two heaviest objects: %v", plan.DesiredNames(0))
	}
	if len(plan.Schedule) != 0 {
		t.Fatal("global plans have no recurring schedule")
	}
	for p := 1; p < 4; p++ {
		if !reflect.DeepEqual(plan.Desired[p], plan.Desired[0]) {
			t.Fatal("global desired sets must be identical across phases")
		}
	}
}

func TestLocalSwapsPhaseExclusiveObjects(t *testing.T) {
	plan := SearchLocal(testInput().dense())
	if !desired(plan, 0, "ph0") {
		t.Errorf("local should hold ph0 during phase 0: %v", plan.DesiredNames(0))
	}
	if !desired(plan, 2, "ph2") {
		t.Errorf("local should hold ph2 during phase 2: %v", plan.DesiredNames(2))
	}
	if !desired(plan, 1, "hot") || !desired(plan, 3, "hot") {
		t.Errorf("local should keep hot resident")
	}
}

func TestDecidePrefersBetterPrediction(t *testing.T) {
	best, all := DecideAll(testInput().dense(), true, true)
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
	m := testInput()
	m.Resident = map[string]bool{"hot": true}
	plan, _ := DecideAll(m.dense(), false, false)
	if plan.Strategy != "none" {
		t.Fatalf("strategy %s", plan.Strategy)
	}
	for p := range plan.Desired {
		if !desired(plan, p, "hot") {
			t.Fatal("none-plan must keep current residency")
		}
	}
	if len(plan.Adoption) != 0 || len(plan.Schedule) != 0 {
		t.Fatal("none-plan must not move anything")
	}
}

func TestAdoptionMovesReachDesired0(t *testing.T) {
	m := testInput()
	m.Resident = map[string]bool{"stale": true}
	m.ChunkSize["stale"] = 30 << 20
	plan := SearchGlobal(m.dense())
	foundEvict := false
	for _, mv := range plan.Adoption {
		if mv.Name == "stale" && !mv.ToDRAM {
			foundEvict = true
		}
		if mv.ToDRAM && !plan.Desired[0][mv.Chunk] {
			t.Errorf("adoption inserts %s which is not desired", mv.Name)
		}
	}
	if !foundEvict {
		t.Error("stale resident must be evicted at adoption")
	}
}

// TestAdoptionSkipsNonResidents: the decision-time residency lists every
// chunk, resident or not; only resident chunks outside Desired[0] may be
// evicted at adoption. Listing a chunk already in NVM as an NVM-bound move
// inflates adoption counts (traces, explain's alternative moves) with
// moves the runtime then drops.
func TestAdoptionSkipsNonResidents(t *testing.T) {
	m := &mapInput{
		DRAMCapacity: 64 << 20,
		ChunkSize:    map[string]int64{"a": 8 << 20, "b": 8 << 20, "c": 8 << 20},
		Phases:       []mapPhase{{DurNS: 10e6, Benefit: map[string]float64{}}},
		Resident:     map[string]bool{"a": false, "b": false, "c": true},
		CopyTimeNS:   func(size int64) float64 { return float64(size) },
		OverlapNS:    func(string, int) float64 { return 0 },
	}
	in := m.dense()
	for _, plan := range []*Plan{SearchGlobal(in), SearchLocal(in)} {
		// Nothing earns DRAM: the global search evicts c, the local
		// search keeps it (lazy eviction: it still fits).
		want := []Move{{Chunk: 2, Name: "c"}}
		if plan.Strategy == Local {
			want = nil
		}
		if !reflect.DeepEqual(plan.Adoption, want) {
			t.Errorf("%s adoption = %v, want %v", plan.Strategy, plan.Adoption, want)
		}
	}
}

func TestScheduleEvictionsBeforeInsertionsPerPhase(t *testing.T) {
	plan := SearchLocal(testInput().dense())
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
	plan := SearchLocal(testInput().dense())
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
	m := testInput()
	// Make ph0/ph2 benefits marginal: below round-trip copy cost (30MB at
	// 5GB/s = 6ms each way).
	m.Phases[0].Benefit["ph0"] = 2e6
	m.Phases[2].Benefit["ph2"] = 2e6
	plan := SearchLocal(m.dense())
	for _, mv := range plan.Schedule {
		if mv.Name == "ph0" || mv.Name == "ph2" {
			t.Fatalf("marginal object scheduled for churn: %v", mv)
		}
	}
}

func TestPredictIterIncludesStalls(t *testing.T) {
	m := testInput()
	// Zero-lead triggers: every insertion is late by its copy time.
	m.TriggerPhase = func(chunk string, target int) int { return target }
	in := m.dense()
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

// TestPredictedIterBitDeterministic repeats one decision on a fixed
// 12-chunk, 4-phase input: every candidate's PredictedIterNS must come out
// bit-identical on every call, since it picks local vs global and is
// reported in explain documents.
func TestPredictedIterBitDeterministic(t *testing.T) {
	m := &mapInput{
		DRAMCapacity: 96 << 20,
		ChunkSize:    map[string]int64{},
		Resident:     map[string]bool{},
		CopyTimeNS:   func(size int64) float64 { return float64(size) / 4 },
		OverlapNS:    func(string, int) float64 { return 1e6 },
		TriggerPhase: func(_ string, target int) int { return (target + 3) % 4 },
		References:   func(string, int) bool { return true },
	}
	rng := xrand.New(12)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("v[%d]", i)
		m.ChunkSize[name] = int64(4+rng.Intn(28)) << 20
		m.Resident[name] = i%3 == 0
	}
	for p := 0; p < 4; p++ {
		ph := mapPhase{DurNS: 20e6, Benefit: map[string]float64{}}
		for name := range m.ChunkSize {
			ph.Benefit[name] = rng.Float64() * 3e6 / 7
		}
		m.Phases = append(m.Phases, ph)
	}
	in := m.dense()
	_, first := DecideAll(in, true, true)
	for call := 0; call < 2000; call++ {
		_, all := DecideAll(in, true, true)
		for k, p := range all {
			if math.Float64bits(p.PredictedIterNS) != math.Float64bits(first[k].PredictedIterNS) {
				t.Fatalf("call %d: %s predicted %x, first call %x", call, p.Strategy,
					math.Float64bits(p.PredictedIterNS), math.Float64bits(first[k].PredictedIterNS))
			}
		}
	}
}

func TestMoveString(t *testing.T) {
	mv := Move{Chunk: 3, Name: "x", ToDRAM: true, TriggerPhase: 1, TargetPhase: 2}
	if mv.String() != "x->DRAM@p1(for p2)" {
		t.Fatalf("String() = %q", mv.String())
	}
}

func TestSinglePhaseWorkload(t *testing.T) {
	m := &mapInput{
		DRAMCapacity: 64 << 20,
		ChunkSize:    map[string]int64{"a": 32 << 20},
		Phases:       []mapPhase{{DurNS: 20e6, Benefit: map[string]float64{"a": 10e6}}},
		Resident:     map[string]bool{},
		CopyTimeNS:   func(size int64) float64 { return float64(size) / 5 },
		OverlapNS:    func(string, int) float64 { return 0 },
	}
	in := m.dense()
	for _, plan := range []*Plan{SearchGlobal(in), SearchLocal(in)} {
		if !desired(plan, 0, "a") {
			t.Errorf("%s: single-phase hot object not placed", plan.Strategy)
		}
		if len(plan.Schedule) != 0 {
			t.Errorf("%s: single-phase plan should have no recurring moves", plan.Strategy)
		}
	}
}

// cgShapedInput is a decision input shaped like one NPB CG rank's: nine
// single-chunk objects, seven phases (four compute phases delimited by
// three collectives), the phases' reference sets, DRAM holding about half
// the footprint, and the hinted small vectors resident at decision time.
func cgShapedInput() *mapInput {
	mb := func(n int64) int64 { return n << 20 }
	refs := [][]string{
		{"a", "col_idx", "rowstr", "p", "q"},
		{"p", "q"},
		{"z", "r", "p", "q"},
		{"r"},
		{"p", "r"},
		{"x", "w"},
		{"x", "r"},
	}
	durs := []float64{30e6, 8e6, 16e6, 8e6, 8e6, 2e6, 6e6}
	m := &mapInput{
		DRAMCapacity: mb(160),
		ChunkSize: map[string]int64{"a": mb(120), "col_idx": mb(60), "rowstr": mb(4),
			"p": mb(16), "q": mb(16), "z": mb(16), "r": mb(16), "x": mb(16), "w": mb(16)},
		Resident:      map[string]bool{"rowstr": true, "q": true, "z": true, "r": true, "x": true, "w": true},
		CopyTimeNS:    func(size int64) float64 { return float64(size) / 4e9 * 1e9 },
		AmortizeIters: 10,
		References: func(c string, ph int) bool {
			for _, r := range refs[ph] {
				if r == c {
					return true
				}
			}
			return false
		},
	}
	// Benefits scale with each phase's duration and the object's size.
	for p, names := range refs {
		ph := mapPhase{DurNS: durs[p], Benefit: map[string]float64{}}
		for _, c := range names {
			ph.Benefit[c] = durs[p] * float64(m.ChunkSize[c]>>20) / 400
		}
		m.Phases = append(m.Phases, ph)
	}
	n := len(refs)
	m.TriggerPhase = func(c string, target int) int {
		trig := target
		for step := 1; step < n; step++ {
			j := ((target-step)%n + n) % n
			if m.References(c, j) {
				break
			}
			trig = j
		}
		return trig
	}
	m.OverlapNS = func(c string, target int) float64 {
		var w float64
		for step := 1; step < n; step++ {
			j := ((target-step)%n + n) % n
			if m.References(c, j) {
				break
			}
			w += durs[j]
		}
		return w
	}
	return m
}

// TestDecideAllAllocationCeiling bounds the heap allocations of one
// two-search decision on a CG-shaped input. Allocation counts do not
// depend on the host, so the ceiling is a machine-independent gate:
// name-keyed sets, re-sorted keys and per-phase map copies put this call
// near 210 allocations; the name-rank index space near 72, most of them
// the knapsack's tables.
func TestDecideAllAllocationCeiling(t *testing.T) {
	in := cgShapedInput().dense()
	best, all := DecideAll(in, true, true)
	if len(all) != 2 || len(best.Adoption) == 0 {
		t.Fatalf("input no longer exercises both searches and an adoption: %d candidates, %d adoption moves",
			len(all), len(best.Adoption))
	}
	allocs := testing.AllocsPerRun(20, func() { DecideAll(in, true, true) })
	t.Logf("%.0f allocations per DecideAll", allocs)
	const ceiling = 120
	if allocs > ceiling {
		t.Fatalf("DecideAll made %.0f allocations, above the ceiling of %d", allocs, ceiling)
	}
}
