package placement

import (
	"fmt"
	"sort"
)

// Strategy names the search that produced a plan.
type Strategy string

const (
	// Local is the phase-local search: an optimal knapsack per phase,
	// allowing data movement between phases.
	Local Strategy = "phase-local"
	// Global is the cross-phase global search: all phases treated as one
	// combined phase, a single placement, no intra-iteration movement.
	Global Strategy = "cross-phase-global"
)

// PhaseData is the model's view of one phase at decision time.
type PhaseData struct {
	// DurNS is the duration measured during the profiling iteration.
	DurNS float64
	// Benefit[i] is chunk i's predicted per-execution gain (ns) of DRAM
	// residency (Eq. 2/3 output). A chunk is a candidate in the phase iff
	// its benefit is > 0; chunks not observed accessing main memory in
	// this phase carry 0.
	Benefit []float64
}

// Input packages everything the searches need, keeping the package pure and
// independently testable. Chunks are named by their index into Names,
// which is sorted in sort.Strings order, so iterating indices upward
// visits chunks in name order: knapsack items, schedule moves and every
// tie-break follow it.
type Input struct {
	DRAMCapacity int64
	// Names lists every chunk in sort.Strings order; the searches read it
	// only to label moves.
	Names []string
	// Size[i] is chunk i's size in bytes.
	Size   []int64
	Phases []PhaseData
	// Resident[i] is chunk i's DRAM residency at decision time (i.e.
	// during profiling).
	Resident []bool
	// CopyTimeNS returns the raw migration time for a size.
	CopyTimeNS func(size int64) float64
	// OverlapNS returns the available computation-overlap window for
	// migrating chunk in time for phase target (Fig. 5).
	OverlapNS func(chunk, target int) float64
	// TriggerPhase returns the phase index at which such a migration may
	// be enqueued.
	TriggerPhase func(chunk, target int) int
	// References reports whether the profiled phase references the chunk
	// (the registry's dependence information); may be nil, in which case
	// evictions stay at their demand points and insertions do not slide
	// past full phases.
	References func(chunk, phase int) bool
	// AmortizeIters spreads one-time adoption cost when scoring the global
	// strategy (default 10).
	AmortizeIters int
	// NaivePredictor scores plans with per-move Eq. 4 costs only (no
	// helper-thread timeline simulation) — an ablation knob showing why
	// FIFO queueing must be modeled.
	NaivePredictor bool
	// NoHysteresis disables the recurrence round-trip charge in the local
	// search's steady-state pass — an ablation knob showing why marginal
	// candidates must not churn.
	NoHysteresis bool
}

// Move is one entry of the proactive migration schedule.
type Move struct {
	// Chunk is the moved chunk's index into Input.Names, and Name its name.
	Chunk  int
	Name   string
	ToDRAM bool
	// TriggerPhase is the phase at whose start the move is enqueued.
	TriggerPhase int
	// TargetPhase is the phase that requires the move completed (for
	// ToDRAM moves; evictions use the phase needing the space).
	TargetPhase int
}

// String renders a move for logs.
func (m Move) String() string {
	dir := "->DRAM"
	if !m.ToDRAM {
		dir = "->NVM"
	}
	return fmt.Sprintf("%s%s@p%d(for p%d)", m.Name, dir, m.TriggerPhase, m.TargetPhase)
}

// Plan is the outcome of one search strategy.
type Plan struct {
	Strategy Strategy
	// Names is the Input's chunk list, which Desired is indexed by.
	Names []string
	// Desired[p][i] reports whether chunk i is DRAM-resident during phase p.
	Desired [][]bool
	// Adoption is the one-time move list bringing the decision-time state
	// to Desired[0].
	Adoption []Move
	// Schedule is the recurring per-iteration move list (empty when the
	// desired sets are identical across phases).
	Schedule []Move
	// PredictedIterNS is the model-predicted steady-state iteration time.
	PredictedIterNS float64
}

// DesiredNames returns the names of the chunks desired in DRAM during
// phase ph, in name order.
func (p *Plan) DesiredNames(ph int) []string {
	var out []string
	for c, in := range p.Desired[ph] {
		if in {
			out = append(out, p.Names[c])
		}
	}
	return out
}

// move builds a Move of chunk c.
func (in *Input) move(c int, toDRAM bool, trigger, target int) Move {
	return Move{Chunk: c, Name: in.Names[c], ToDRAM: toDRAM, TriggerPhase: trigger, TargetPhase: target}
}

// baseNS returns the phase durations normalized to an all-NVM placement:
// the profiled duration plus the benefit of every chunk that was already
// DRAM-resident while profiling (its gain is baked into the measurement).
func (in *Input) baseNS() []float64 {
	base := make([]float64, len(in.Phases))
	for p, pd := range in.Phases {
		base[p] = pd.DurNS
		for c, b := range pd.Benefit {
			if b > 0 && in.Resident[c] {
				base[p] += b
			}
		}
	}
	return base
}

// benefitTotals returns each chunk's benefit summed over the phases, in
// phase order; a total > 0 marks a candidate of some phase.
func (in *Input) benefitTotals() []float64 {
	total := make([]float64, len(in.Size))
	for _, pd := range in.Phases {
		for c, b := range pd.Benefit {
			if b > 0 {
				total[c] += b
			}
		}
	}
	return total
}

// SearchLocal runs the phase-local search: phases are decided one by one
// (§3.1.3), each with its own knapsack whose weights fold in movement cost
// (Eq. 4) and the extra cost of evicting residents when DRAM is short.
//
// The sequential pass runs twice: the placement repeats every iteration,
// so costs must be priced against the cyclic steady state (what is
// resident when the phase comes around again), not against the one-off
// residency at decision time — otherwise an object that the cycle evicts
// every iteration looks like a free resident at the phases that use it,
// and the search oscillates large objects for marginal gain.
func SearchLocal(in *Input) *Plan {
	return SearchLocalFrom(in, in.Resident)
}

// SearchLocalFrom is SearchLocal with an explicit warm-start residency.
// Decide seeds it with the global plan's chosen set, making the local
// search a refinement of the best static placement rather than of the
// arbitrary adoption-time state (the sequential pass is greedy, so its
// starting point matters).
func SearchLocalFrom(in *Input, seed []bool) *Plan {
	// Pass 1 prices one-time adoption only (no recurrence charge) and
	// reveals which chunks would be cycle-stable (desired at every phase)
	// versus transient (moved within the cycle). Pass 2, warm-started from
	// pass 1's end state, charges every transient candidate the recurring
	// round-trip copy its residency implies, so only swaps that genuinely
	// out-earn the helper thread's occupancy survive.
	desired := searchLocalPass(in, seed, nil)
	stable := make([]bool, len(in.Size))
	resident := seed
	if n := len(desired); n > 0 {
		for c := range stable {
			stable[c] = true
			for p := 0; p < n && stable[c]; p++ {
				stable[c] = desired[p][c]
			}
		}
		resident = desired[n-1]
	}
	if in.NoHysteresis {
		for c := range stable {
			stable[c] = true // every candidate priced as cycle-stable
		}
	}
	desired = searchLocalPass(in, resident, stable)
	plan := &Plan{Strategy: Local, Names: in.Names, Desired: desired}
	plan.Adoption, plan.Schedule = buildSchedule(in, desired)
	plan.PredictedIterNS = predictIter(in, plan)
	return plan
}

// searchLocalPass runs one sequential per-phase knapsack pass from the
// start residency. stable, when non-nil, enables the steady-state
// recurrence charge for chunks outside it.
func searchLocalPass(in *Input, resident, stable []bool) [][]bool {
	n := len(in.Size)
	sets := make([]bool, len(in.Phases)*n) // backs every phase's desired set
	desired := make([][]bool, len(in.Phases))
	items := make([]Item, 0, len(in.Size))
	chunkOf := make([]int, 0, len(in.Size)) // chunkOf[k] is items[k]'s chunk
	for p, pd := range in.Phases {
		var residentBytes int64
		for c, r := range resident {
			if r {
				residentBytes += in.Size[c]
			}
		}
		items, chunkOf = items[:0], chunkOf[:0]
		for c, b := range pd.Benefit {
			if b <= 0 {
				continue
			}
			size := in.Size[c]
			w := b
			if stable != nil && !stable[c] {
				// Transient in the cyclic steady state: every iteration
				// re-inserts and re-evicts it; charge the round trip so
				// marginal candidates don't churn (hysteresis against
				// oscillation and helper-thread congestion).
				w -= in.CopyTimeNS(size)
			}
			if !resident[c] {
				w -= MoveCost(in, size, in.OverlapNS(c, p))
				// extraCOST: evicting enough bytes to make room.
				if deficit := size - (in.DRAMCapacity - residentBytes); deficit > 0 {
					w -= in.CopyTimeNS(deficit)
				}
			}
			items = append(items, Item{Size: size, WeightNS: w})
			chunkOf = append(chunkOf, c)
		}
		chosen, _ := Knapsack(items, in.DRAMCapacity)
		next := sets[p*n : (p+1)*n : (p+1)*n]
		desired[p] = next
		var nextBytes int64
		for _, k := range chosen {
			next[chunkOf[k]] = true
			nextBytes += items[k].Size
		}
		// Prior residents stay if they still fit (eviction only on space
		// demand, matching the runtime's lazy eviction).
		for c, r := range resident {
			if !r || next[c] {
				continue
			}
			if sz := in.Size[c]; nextBytes+sz <= in.DRAMCapacity {
				next[c] = true
				nextBytes += sz
			}
		}
		resident = next
	}
	return desired
}

// SearchGlobal runs the cross-phase global search: all phases combine into
// one, per-chunk weight is the benefit summed over phases minus the
// amortized one-time adoption cost, and a single knapsack fixes one
// placement for the whole iteration.
func SearchGlobal(in *Input) *Plan {
	amort := in.AmortizeIters
	if amort <= 0 {
		amort = 10
	}
	span := iterSpan(in)
	items := make([]Item, 0, len(in.Size))
	chunkOf := make([]int, 0, len(in.Size))
	for c, total := range in.benefitTotals() {
		if total <= 0 {
			continue
		}
		size := in.Size[c]
		w := total
		if !in.Resident[c] {
			// Adoption migrations overlap with the whole iteration; any
			// exposed remainder is paid once and amortized.
			w -= MoveCost(in, size, span) / float64(amort)
		}
		items = append(items, Item{Size: size, WeightNS: w})
		chunkOf = append(chunkOf, c)
	}
	chosen, _ := Knapsack(items, in.DRAMCapacity)
	set := make([]bool, len(in.Size))
	for _, k := range chosen {
		set[chunkOf[k]] = true
	}
	desired := make([][]bool, len(in.Phases))
	for p := range desired {
		desired[p] = set
	}
	plan := &Plan{Strategy: Global, Names: in.Names, Desired: desired}
	plan.Adoption, plan.Schedule = buildSchedule(in, desired)
	plan.PredictedIterNS = predictIter(in, plan)
	return plan
}

// DecideAll runs the enabled strategies and returns the plan with the best
// predicted iteration time (§3.1.3: "choose the best data placement of the
// two searches") and every candidate plan, for tooling and tests.
func DecideAll(in *Input, enableLocal, enableGlobal bool) (*Plan, []*Plan) {
	var best *Plan
	var all []*Plan
	if enableGlobal {
		best = SearchGlobal(in)
		all = append(all, best)
	}
	if enableLocal {
		seed := in.Resident
		if best != nil {
			seed = best.Desired[0]
		}
		lp := SearchLocalFrom(in, seed)
		all = append(all, lp)
		if best == nil || lp.PredictedIterNS < best.PredictedIterNS {
			best = lp
		}
	}
	if best == nil {
		// No strategy enabled: keep everything where it is.
		set := append([]bool(nil), in.Resident...)
		desired := make([][]bool, len(in.Phases))
		for p := range desired {
			desired[p] = set
		}
		best = &Plan{Strategy: "none", Names: in.Names, Desired: desired}
		best.PredictedIterNS = predictIter(in, best)
		all = append(all, best)
	}
	return best, all
}

// OracleStaticNS prices the clairvoyant best static placement: one DRAM
// set chosen with full knowledge of the profiled benefits and zero
// adoption cost (the oracle placed the data before the run began), held
// for the whole iteration. It returns the model-predicted steady-state
// iteration time of that placement — the per-iteration baseline the
// explain layer's regret figure compares realized execution against. The
// computation is one extra knapsack over the already-memoized benefit
// totals, so it is cheap enough to run at every decision.
func OracleStaticNS(in *Input) float64 {
	var items []Item
	for c, total := range in.benefitTotals() {
		if total > 0 {
			items = append(items, Item{Size: in.Size[c], WeightNS: total})
		}
	}
	_, gain := Knapsack(items, in.DRAMCapacity)
	var base float64
	for _, b := range in.baseNS() {
		base += b
	}
	return base - gain
}

// MoveCost applies Eq. 4 through the Input's callbacks.
func MoveCost(in *Input, size int64, overlapNS float64) float64 {
	c := in.CopyTimeNS(size) - overlapNS
	if c < 0 {
		return 0
	}
	return c
}

func iterSpan(in *Input) float64 {
	var s float64
	for _, pd := range in.Phases {
		s += pd.DurNS
	}
	return s
}

// buildSchedule derives the one-time adoption moves (decision-time state to
// Desired[0]) and the recurring per-iteration schedule (cyclic diffs of the
// desired sets, with DRAM-bound moves triggered as early as the dependence
// analysis allows).
func buildSchedule(in *Input, desired [][]bool) (adoption, schedule []Move) {
	n := len(desired)
	if n == 0 {
		return nil, nil
	}
	// Adoption: evictions first so space exists for insertions.
	for c, r := range in.Resident {
		if r && !desired[0][c] {
			adoption = append(adoption, in.move(c, false, 0, 0))
		}
	}
	for c, d := range desired[0] {
		if d && !in.Resident[c] {
			adoption = append(adoption, in.move(c, true, 0, 0))
		}
	}
	mod := func(x int) int { return ((x % n) + n) % n }

	// Collect per-chunk transition points: insertion phases (enters the
	// desired set) and eviction phases (leaves it).
	type moveKey struct{ chunk, phase int }
	var evictions, insertions []moveKey
	for c := range in.Size {
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

	// Proactive evictions: a chunk leaving the desired set at phase q can
	// vacate DRAM right after its last profiled reference before q — the
	// mirror image of Fig. 5's proactive insertion, and what lets the next
	// tenant's copy overlap (the double-buffering of the paper's Fig. 6
	// walkthrough). Without reference information, evict at the demand
	// point.
	evictTrigger := make([]int, len(evictions))
	for e, ev := range evictions {
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
		evictTrigger[e] = trig
		schedule = append(schedule, in.move(ev.chunk, false, trig, ev.phase))
	}

	// Occupancy: the phases each chunk holds DRAM, from its (unslid)
	// insertion to its eviction trigger. Used to bound how far insertions
	// may slide back.
	occ := make([]int64, n)
	for p, d := range desired {
		for c, in0 := range d {
			if in0 {
				occ[p] += in.Size[c]
			}
		}
	}
	// Extend occupancy from eviction demand back to eviction trigger is a
	// shrink (early vacancy): remove the occupancy of phases between the
	// eviction trigger and the demand point.
	for e, ev := range evictions {
		trig := evictTrigger[e]
		if trig == ev.phase {
			continue
		}
		for j := trig; j != ev.phase; j = mod(j + 1) {
			if desired[j][ev.chunk] {
				occ[j] -= in.Size[ev.chunk]
			}
		}
	}

	// Insertions: slide each trigger as early as the dependence analysis
	// (Fig. 5), the chunk's own eviction, and DRAM occupancy allow.
	for _, ins := range insertions {
		c, p := ins.chunk, ins.phase
		stepsDep := n - 1
		if in.TriggerPhase != nil {
			stepsDep = mod(p - in.TriggerPhase(c, p))
		}
		size := in.Size[c]
		steps := 0
		for j := 1; j <= stepsDep; j++ {
			ph := mod(p - j)
			if desired[ph][c] || occ[ph]+size > in.DRAMCapacity {
				break
			}
			steps = j
		}
		trigger := mod(p - steps)
		// The slid-back copy occupies DRAM from trigger to target.
		for j := trigger; j != p; j = mod(j + 1) {
			occ[j] += size
		}
		schedule = append(schedule, in.move(c, true, trigger, p))
	}
	// Within a trigger phase, evictions must reach the helper queue before
	// insertions so the vacated space is available.
	sort.SliceStable(schedule, func(a, b int) bool {
		if schedule[a].TriggerPhase != schedule[b].TriggerPhase {
			return schedule[a].TriggerPhase < schedule[b].TriggerPhase
		}
		return !schedule[a].ToDRAM && schedule[b].ToDRAM
	})
	return adoption, schedule
}

// predictIter estimates the steady-state iteration time under a plan: the
// all-NVM base durations minus the benefit of DRAM-resident referenced
// chunks, plus the exposed cost of the recurring migration schedule.
//
// The exposed cost comes from a small timeline simulation of one steady-
// state cycle: the single helper thread serializes all copies in FIFO
// order, each move may not start before its trigger phase begins, and a
// DRAM-bound move not finished when its target phase starts stalls the
// application. Pricing each move's overlap window independently (the naive
// Eq. 4 reading) misses FIFO queueing and lets the local search schedule
// physically impossible amounts of overlapped copying.
func predictIter(in *Input, plan *Plan) float64 {
	base := in.baseNS()
	var t float64
	for p, pd := range in.Phases {
		t += base[p]
		for c, b := range pd.Benefit {
			if b > 0 && plan.Desired[p][c] {
				t -= b
			}
		}
	}
	n := len(in.Phases)
	if n == 0 || len(plan.Schedule) == 0 {
		return t
	}
	if in.NaivePredictor {
		// Ablation: price each move independently through Eq. 4, ignoring
		// helper-thread serialization.
		for _, mv := range plan.Schedule {
			if mv.ToDRAM {
				t += MoveCost(in, in.Size[mv.Chunk], in.OverlapNS(mv.Chunk, mv.TargetPhase))
			}
		}
		return t
	}
	// Phase start offsets within one cycle.
	start := make([]float64, n+1)
	for p := 0; p < n; p++ {
		start[p+1] = start[p] + base[p]
	}
	span := start[n]
	// buildSchedule emits moves in trigger order, evictions before
	// insertions within a phase: the helper's FIFO order.
	var helperFree, stalls float64
	for _, mv := range plan.Schedule {
		s := start[mv.TriggerPhase]
		if helperFree > s {
			s = helperFree
		}
		end := s + in.CopyTimeNS(in.Size[mv.Chunk])
		helperFree = end
		if mv.ToDRAM {
			deadline := start[mv.TargetPhase]
			if mv.TargetPhase < mv.TriggerPhase {
				deadline += span // genuinely wraps: arrives for the next cycle
			}
			// trigger == target means the move starts at the phase that
			// needs it: it is late by its own copy time every cycle.
			if end > deadline {
				stalls += end - deadline
			}
		}
	}
	return t + stalls
}
