package placement

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"unimem/internal/xrand"
)

// mapInput is the name-keyed form of Input: per-chunk data in maps keyed
// by chunk name and callbacks taking names. The oracle searches below run
// on it; dense converts it to the name-rank Input the package searches.
type mapInput struct {
	DRAMCapacity   int64
	ChunkSize      map[string]int64
	Phases         []mapPhase
	Resident       map[string]bool
	CopyTimeNS     func(size int64) float64
	OverlapNS      func(chunk string, target int) float64
	TriggerPhase   func(chunk string, target int) int
	References     func(chunk string, phase int) bool
	AmortizeIters  int
	NaivePredictor bool
	NoHysteresis   bool
}

// mapPhase is PhaseData keyed by chunk name; only candidates (benefit > 0)
// appear in Benefit.
type mapPhase struct {
	DurNS   float64
	Benefit map[string]float64
}

// dense returns the name-rank Input of m: chunk i is the i-th key of
// ChunkSize in sort.Strings order.
func (m *mapInput) dense() *Input {
	names := sortedChunks(m.ChunkSize)
	in := &Input{
		DRAMCapacity:   m.DRAMCapacity,
		Names:          names,
		Size:           make([]int64, len(names)),
		Phases:         make([]PhaseData, len(m.Phases)),
		Resident:       make([]bool, len(names)),
		CopyTimeNS:     m.CopyTimeNS,
		OverlapNS:      func(c, target int) float64 { return m.OverlapNS(names[c], target) },
		AmortizeIters:  m.AmortizeIters,
		NaivePredictor: m.NaivePredictor,
		NoHysteresis:   m.NoHysteresis,
	}
	for c, name := range names {
		in.Size[c] = m.ChunkSize[name]
		in.Resident[c] = m.Resident[name]
	}
	for p, ph := range m.Phases {
		in.Phases[p] = PhaseData{DurNS: ph.DurNS, Benefit: make([]float64, len(names))}
		for c, name := range names {
			in.Phases[p].Benefit[c] = ph.Benefit[name]
		}
	}
	if m.TriggerPhase != nil {
		in.TriggerPhase = func(c, target int) int { return m.TriggerPhase(names[c], target) }
	}
	if m.References != nil {
		in.References = func(c, phase int) bool { return m.References(names[c], phase) }
	}
	return in
}

// sortedChunks returns map keys in sort.Strings order.
func sortedChunks[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The oracle: the map-based searches as they ran before chunks were
// indexed by name rank, with two corrections. Float sums over chunks run
// in name order (they ran in map order, so PredictedIterNS was not
// bit-deterministic), and adoption evicts only chunks that are resident
// (it listed every non-resident key of Resident as a no-op eviction).

type oraclePlan struct {
	Strategy        Strategy
	Desired         []map[string]bool
	Adoption        []Move
	Schedule        []Move
	PredictedIterNS float64
}

func oracleBaseNS(in *mapInput) []float64 {
	base := make([]float64, len(in.Phases))
	for p, pd := range in.Phases {
		base[p] = pd.DurNS
		for _, c := range sortedChunks(pd.Benefit) {
			if in.Resident[c] {
				base[p] += pd.Benefit[c]
			}
		}
	}
	return base
}

func oracleSetBytes(in *mapInput, set map[string]bool) int64 {
	var n int64
	for c := range set {
		n += in.ChunkSize[c]
	}
	return n
}

func oracleCopySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

func oracleMoveCost(in *mapInput, size int64, overlapNS float64) float64 {
	c := in.CopyTimeNS(size) - overlapNS
	if c < 0 {
		return 0
	}
	return c
}

func oracleSearchLocalFrom(in *mapInput, seed map[string]bool) *oraclePlan {
	resident := oracleCopySet(seed)
	desired := oracleSearchLocalPass(in, resident, nil)
	stable := map[string]bool{}
	if n := len(desired); n > 0 {
		for c := range desired[0] {
			inAll := true
			for p := 1; p < n; p++ {
				if !desired[p][c] {
					inAll = false
					break
				}
			}
			if inAll {
				stable[c] = true
			}
		}
		resident = desired[n-1]
	}
	if in.NoHysteresis {
		for c := range in.ChunkSize {
			stable[c] = true
		}
	}
	desired = oracleSearchLocalPass(in, resident, stable)
	plan := &oraclePlan{Strategy: Local, Desired: desired}
	plan.Adoption, plan.Schedule = oracleBuildSchedule(in, desired)
	plan.PredictedIterNS = oraclePredictIter(in, plan)
	return plan
}

func oracleSearchLocalPass(in *mapInput, startResident, stable map[string]bool) []map[string]bool {
	resident := oracleCopySet(startResident)
	desired := make([]map[string]bool, len(in.Phases))
	for p, pd := range in.Phases {
		residentBytes := oracleSetBytes(in, resident)
		var items []Item
		for _, c := range sortedChunks(pd.Benefit) {
			b := pd.Benefit[c]
			size := in.ChunkSize[c]
			w := b
			if stable != nil && !stable[c] {
				w -= in.CopyTimeNS(size)
			}
			if !resident[c] {
				w -= oracleMoveCost(in, size, in.OverlapNS(c, p))
				if deficit := size - (in.DRAMCapacity - residentBytes); deficit > 0 {
					w -= in.CopyTimeNS(deficit)
				}
			}
			items = append(items, Item{Chunk: c, Size: size, WeightNS: w})
		}
		chosen, _ := Knapsack(items, in.DRAMCapacity)
		next := make(map[string]bool, len(chosen))
		var nextBytes int64
		for _, i := range chosen {
			next[items[i].Chunk] = true
			nextBytes += items[i].Size
		}
		for _, c := range sortedChunks(resident) {
			if next[c] {
				continue
			}
			if sz := in.ChunkSize[c]; nextBytes+sz <= in.DRAMCapacity {
				next[c] = true
				nextBytes += sz
			}
		}
		desired[p] = next
		resident = next
	}
	return desired
}

func oracleIterSpan(in *mapInput) float64 {
	var s float64
	for _, pd := range in.Phases {
		s += pd.DurNS
	}
	return s
}

func oracleSearchGlobal(in *mapInput) *oraclePlan {
	amort := in.AmortizeIters
	if amort <= 0 {
		amort = 10
	}
	total := make(map[string]float64)
	for _, pd := range in.Phases {
		for c, b := range pd.Benefit {
			total[c] += b
		}
	}
	var items []Item
	for _, c := range sortedChunks(total) {
		size := in.ChunkSize[c]
		w := total[c]
		if !in.Resident[c] {
			w -= oracleMoveCost(in, size, oracleIterSpan(in)) / float64(amort)
		}
		items = append(items, Item{Chunk: c, Size: size, WeightNS: w})
	}
	chosen, _ := Knapsack(items, in.DRAMCapacity)
	set := make(map[string]bool, len(chosen))
	for _, i := range chosen {
		set[items[i].Chunk] = true
	}
	desired := make([]map[string]bool, len(in.Phases))
	for p := range desired {
		desired[p] = set
	}
	plan := &oraclePlan{Strategy: Global, Desired: desired}
	plan.Adoption, plan.Schedule = oracleBuildSchedule(in, desired)
	plan.PredictedIterNS = oraclePredictIter(in, plan)
	return plan
}

func oracleDecideAll(in *mapInput, enableLocal, enableGlobal bool) (*oraclePlan, []*oraclePlan) {
	var best *oraclePlan
	var all []*oraclePlan
	if enableGlobal {
		best = oracleSearchGlobal(in)
		all = append(all, best)
	}
	if enableLocal {
		seed := in.Resident
		if best != nil {
			seed = best.Desired[0]
		}
		lp := oracleSearchLocalFrom(in, seed)
		all = append(all, lp)
		if best == nil || lp.PredictedIterNS < best.PredictedIterNS {
			best = lp
		}
	}
	if best == nil {
		desired := make([]map[string]bool, len(in.Phases))
		for p := range desired {
			desired[p] = oracleCopySet(in.Resident)
		}
		best = &oraclePlan{Strategy: "none", Desired: desired}
		best.PredictedIterNS = oraclePredictIter(in, best)
		all = append(all, best)
	}
	return best, all
}

func oracleStaticNS(in *mapInput) float64 {
	total := make(map[string]float64)
	for _, pd := range in.Phases {
		for c, b := range pd.Benefit {
			total[c] += b
		}
	}
	var items []Item
	for _, c := range sortedChunks(total) {
		items = append(items, Item{Chunk: c, Size: in.ChunkSize[c], WeightNS: total[c]})
	}
	_, gain := Knapsack(items, in.DRAMCapacity)
	var base float64
	for _, b := range oracleBaseNS(in) {
		base += b
	}
	return base - gain
}

func oracleBuildSchedule(in *mapInput, desired []map[string]bool) (adoption, schedule []Move) {
	n := len(desired)
	if n == 0 {
		return nil, nil
	}
	for _, c := range sortedChunks(in.Resident) {
		if in.Resident[c] && !desired[0][c] {
			adoption = append(adoption, Move{Name: c, ToDRAM: false})
		}
	}
	for _, c := range sortedChunks(desired[0]) {
		if !in.Resident[c] {
			adoption = append(adoption, Move{Name: c, ToDRAM: true})
		}
	}
	mod := func(x int) int { return ((x % n) + n) % n }
	allChunks := map[string]bool{}
	for _, d := range desired {
		for c := range d {
			allChunks[c] = true
		}
	}
	type moveKey struct {
		chunk string
		phase int
	}
	var evictions, insertions []moveKey
	for _, c := range sortedChunks(allChunks) {
		for p := 0; p < n; p++ {
			prev := desired[mod(p-1)]
			if desired[p][c] && !prev[c] {
				insertions = append(insertions, moveKey{c, p})
			}
			if !desired[p][c] && prev[c] {
				evictions = append(evictions, moveKey{c, p})
			}
		}
	}
	evictTrigger := make(map[moveKey]int, len(evictions))
	for _, ev := range evictions {
		trig := ev.phase
		if in.References != nil {
			for j := 1; j < n; j++ {
				ph := mod(ev.phase - j)
				if desired[ph][ev.chunk] && in.References(ev.chunk, ph) {
					trig = mod(ph + 1)
					break
				}
			}
		}
		evictTrigger[ev] = trig
		schedule = append(schedule, Move{Name: ev.chunk, ToDRAM: false, TriggerPhase: trig, TargetPhase: ev.phase})
	}
	occ := make([]int64, n)
	for _, c := range sortedChunks(allChunks) {
		for p := 0; p < n; p++ {
			if desired[p][c] {
				occ[p] += in.ChunkSize[c]
			}
		}
	}
	for _, ev := range evictions {
		trig := evictTrigger[ev]
		if trig == ev.phase {
			continue
		}
		for j := trig; j != ev.phase; j = mod(j + 1) {
			if desired[j][ev.chunk] {
				occ[j] -= in.ChunkSize[ev.chunk]
			}
		}
	}
	for _, ins := range insertions {
		c, p := ins.chunk, ins.phase
		stepsDep := n - 1
		if in.TriggerPhase != nil {
			stepsDep = mod(p - in.TriggerPhase(c, p))
		}
		size := in.ChunkSize[c]
		steps := 0
		for j := 1; j <= stepsDep; j++ {
			ph := mod(p - j)
			if desired[ph][c] || occ[ph]+size > in.DRAMCapacity {
				break
			}
			steps = j
		}
		trigger := mod(p - steps)
		for j := trigger; j != p; j = mod(j + 1) {
			occ[j] += size
		}
		schedule = append(schedule, Move{Name: c, ToDRAM: true, TriggerPhase: trigger, TargetPhase: p})
	}
	sort.SliceStable(schedule, func(a, b int) bool {
		if schedule[a].TriggerPhase != schedule[b].TriggerPhase {
			return schedule[a].TriggerPhase < schedule[b].TriggerPhase
		}
		return !schedule[a].ToDRAM && schedule[b].ToDRAM
	})
	return adoption, schedule
}

func oraclePredictIter(in *mapInput, plan *oraclePlan) float64 {
	base := oracleBaseNS(in)
	var t float64
	for p, pd := range in.Phases {
		t += base[p]
		for _, c := range sortedChunks(pd.Benefit) {
			if plan.Desired[p][c] {
				t -= pd.Benefit[c]
			}
		}
	}
	n := len(in.Phases)
	if n == 0 || len(plan.Schedule) == 0 {
		return t
	}
	if in.NaivePredictor {
		for _, mv := range plan.Schedule {
			if mv.ToDRAM {
				t += oracleMoveCost(in, in.ChunkSize[mv.Name], in.OverlapNS(mv.Name, mv.TargetPhase))
			}
		}
		return t
	}
	start := make([]float64, n+1)
	for p := 0; p < n; p++ {
		start[p+1] = start[p] + base[p]
	}
	span := start[n]
	moves := make([]Move, len(plan.Schedule))
	copy(moves, plan.Schedule)
	sort.SliceStable(moves, func(a, b int) bool {
		return moves[a].TriggerPhase < moves[b].TriggerPhase
	})
	var helperFree, stalls float64
	for _, mv := range moves {
		s := start[mv.TriggerPhase]
		if helperFree > s {
			s = helperFree
		}
		end := s + in.CopyTimeNS(in.ChunkSize[mv.Name])
		helperFree = end
		if mv.ToDRAM {
			deadline := start[mv.TargetPhase]
			if mv.TargetPhase < mv.TriggerPhase {
				deadline += span
			}
			if end > deadline {
				stalls += end - deadline
			}
		}
	}
	return t + stalls
}

// oracleNamePool mixes names whose sort.Strings order differs from their
// numeric order (x[10] sorts before x[2]) with plain object names.
var oracleNamePool = []string{
	"x[0]", "x[1]", "x[2]", "x[10]", "x[11]", "x[3]", "x", "y[2]", "y[10]",
	"a", "b", "field", "grid[7]", "grid[12]", "r", "z",
}

// randomMapInput draws a decision input: up to 12 chunks, up to 7 phases,
// random residents, capacity from very tight to roomy, and per-chunk
// callback tables.
func randomMapInput(rng *xrand.RNG) *mapInput {
	perm := rng.Perm(len(oracleNamePool))
	nChunks := 1 + rng.Intn(12)
	nPhases := 1 + rng.Intn(7)
	in := &mapInput{
		ChunkSize:      map[string]int64{},
		Resident:       map[string]bool{},
		AmortizeIters:  rng.Intn(20),
		NaivePredictor: rng.Intn(4) == 0,
		NoHysteresis:   rng.Intn(4) == 0,
	}
	overlap := map[string][]float64{}
	trigger := map[string][]int{}
	refs := map[string][]bool{}
	var total int64
	for _, i := range perm[:nChunks] {
		name := oracleNamePool[i]
		size := 1<<19 + rng.Int63n(40<<20)
		in.ChunkSize[name] = size
		total += size
		// Every chunk appears in Resident, resident or not, as the
		// runtime's residency snapshot lists every chunk.
		in.Resident[name] = rng.Intn(3) == 0
		overlap[name] = make([]float64, nPhases)
		trigger[name] = make([]int, nPhases)
		refs[name] = make([]bool, nPhases)
		for p := 0; p < nPhases; p++ {
			overlap[name][p] = rng.Float64() * 20e6
			trigger[name][p] = rng.Intn(nPhases)
			refs[name][p] = rng.Intn(2) == 0
		}
	}
	in.DRAMCapacity = int64(float64(total) * (0.05 + rng.Float64()))
	for p := 0; p < nPhases; p++ {
		ph := mapPhase{DurNS: 1e6 + rng.Float64()*50e6, Benefit: map[string]float64{}}
		for name := range in.ChunkSize {
			if rng.Intn(2) == 0 {
				ph.Benefit[name] = rng.Float64() * 25e6
				if rng.Intn(8) == 0 {
					ph.Benefit[name] = 1e-3 * rng.Float64()
				}
				if ph.Benefit[name] <= 0 {
					delete(ph.Benefit, name)
				}
			}
		}
		in.Phases = append(in.Phases, ph)
	}
	bw := 1e9 + rng.Float64()*9e9
	in.CopyTimeNS = func(size int64) float64 { return float64(size) / bw * 1e9 }
	in.OverlapNS = func(c string, target int) float64 { return overlap[c][target] }
	if rng.Intn(5) != 0 {
		in.TriggerPhase = func(c string, target int) int { return trigger[c][target] }
	}
	if rng.Intn(5) != 0 {
		in.References = func(c string, phase int) bool { return refs[c][phase] }
	}
	return in
}

// namedMoves strips chunk indices, leaving what the oracle also records.
func namedMoves(moves []Move) []Move {
	var out []Move
	for _, mv := range moves {
		mv.Chunk = 0
		out = append(out, mv)
	}
	return out
}

// desiredNames renders a plan's per-phase desired sets by name.
func desiredNames(p *Plan) [][]string {
	out := make([][]string, len(p.Desired))
	for ph := range p.Desired {
		out[ph] = p.DesiredNames(ph)
	}
	return out
}

func oracleDesiredNames(p *oraclePlan) [][]string {
	out := make([][]string, len(p.Desired))
	for ph, set := range p.Desired {
		for _, c := range sortedChunks(set) {
			if set[c] {
				out[ph] = append(out[ph], c)
			}
		}
	}
	return out
}

// TestSearchesMatchMapOracle is the differential test of the name-rank
// searches against the map-based oracle: on random inputs, every
// candidate plan must have the same desired sets, adoption and schedule,
// and a bit-equal PredictedIterNS, and the same plan must win.
func TestSearchesMatchMapOracle(t *testing.T) {
	rng := xrand.New(0x0DD5)
	for iter := 0; iter < 3000; iter++ {
		m := randomMapInput(rng)
		in := m.dense()
		local, global := rng.Intn(4) != 0, rng.Intn(4) != 0
		best, all := DecideAll(in, local, global)
		wantBest, wantAll := oracleDecideAll(m, local, global)
		if len(all) != len(wantAll) {
			t.Fatalf("input %d: %d candidates, oracle %d", iter, len(all), len(wantAll))
		}
		for k, p := range all {
			w := wantAll[k]
			if p.Strategy != w.Strategy {
				t.Fatalf("input %d: candidate %d is %s, oracle %s", iter, k, p.Strategy, w.Strategy)
			}
			if got, want := desiredNames(p), oracleDesiredNames(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d %s: desired %v, oracle %v", iter, p.Strategy, got, want)
			}
			if got, want := namedMoves(p.Adoption), w.Adoption; !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d %s: adoption %v, oracle %v", iter, p.Strategy, got, want)
			}
			if got, want := namedMoves(p.Schedule), w.Schedule; !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d %s: schedule %v, oracle %v", iter, p.Strategy, got, want)
			}
			for _, mv := range append(p.Adoption, p.Schedule...) {
				if in.Names[mv.Chunk] != mv.Name {
					t.Fatalf("input %d: move %v carries index %d (%s)", iter, mv, mv.Chunk, in.Names[mv.Chunk])
				}
			}
			if math.Float64bits(p.PredictedIterNS) != math.Float64bits(w.PredictedIterNS) {
				t.Fatalf("input %d %s: predicted %v, oracle %v", iter, p.Strategy, p.PredictedIterNS, w.PredictedIterNS)
			}
		}
		if (best == all[0]) != (wantBest == wantAll[0]) {
			t.Fatalf("input %d: winner %s, oracle %s", iter, best.Strategy, wantBest.Strategy)
		}
		if got, want := OracleStaticNS(in), oracleStaticNS(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("input %d: OracleStaticNS %v, oracle %v", iter, got, want)
		}
	}
}
