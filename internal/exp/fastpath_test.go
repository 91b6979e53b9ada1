package exp

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/scenario"
	"unimem/internal/workloads"
)

// TestFastPathDifferentialRandomized is the randomized exact-vs-fast
// differential suite: every generator archetype, under the full Unimem
// runtime and the cache-exempt static baselines, must produce
// byte-identical results with the analytic fast path on and off — and
// the fast path must have engaged somewhere, or the equality is vacuous.
// The engine runs uncached so both sides really execute.
func TestFastPathDifferentialRandomized(t *testing.T) {
	eng := NewEngine(true, nil) // quick, uncached: both sides execute fresh
	m := machine.PlatformA().WithNVMLatencyFactor(4)
	strategies := []struct {
		name string
		st   Strategy
	}{
		{"unimem", StrategyUnimem()},
		{"hint-density", StrategyHintDensity()},
		{"xmem", StrategyXMem()},
	}
	var analytic int64
	for _, a := range scenario.Archetypes() {
		for si, seed := range []uint64{0x5EED, 0xFA57} {
			spec, err := scenario.Generate(a, seed)
			if err != nil {
				t.Fatal(err)
			}
			spec.Ranks = 2
			w, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				run := func(exact bool) (*app.Result, []*core.Runtime, ExecInfo) {
					res, rts, info, err := eng.ExecuteInfo(context.Background(), w, m, s.st, cfg,
						app.Options{Ranks: spec.Ranks, Seed: seed, ExactSim: exact})
					if err != nil {
						t.Fatalf("%s/%s seed %d: %v", a, s.name, si, err)
					}
					return res, rts, info
				}
				exRes, exRts, exInfo := run(true)
				faRes, faRts, faInfo := run(false)
				if !reflect.DeepEqual(exRes, faRes) {
					t.Errorf("%s/%s/%s: results diverge with fast path on", a, spec.Name, s.name)
				}
				if exInfo.FastPath.AnalyticIters != 0 || exInfo.FastPath.FastForwards != 0 {
					t.Errorf("%s/%s/%s: exact run fast-forwarded: %+v",
						a, spec.Name, s.name, exInfo.FastPath)
				}
				for r := range exRts {
					if exRts[r].Decisions != faRts[r].Decisions ||
						!reflect.DeepEqual(exRts[r].ReprofileIters, faRts[r].ReprofileIters) {
						t.Errorf("%s/%s rank %d: adaptation history diverges: exact(%d %v) fast(%d %v)",
							a, spec.Name, r, exRts[r].Decisions, exRts[r].ReprofileIters,
							faRts[r].Decisions, faRts[r].ReprofileIters)
					}
				}
				analytic += faInfo.FastPath.AnalyticIters
			}
		}
	}
	if analytic == 0 {
		t.Fatal("fast path never engaged across the differential suite; equality is vacuous")
	}
}

// derivedContentEpochs is the per-iteration derivation that content epochs
// replaced, kept as the oracle: every iteration whose reference list or
// scheduled communication volume differs from the previous iteration's,
// in any phase.
func derivedContentEpochs(w *workloads.Workload) []int {
	var out []int
	for iter := 1; iter < w.Iterations; iter++ {
		for pi := range w.Phases {
			p := &w.Phases[pi]
			if p.CommBytesAt(iter) != p.CommBytesAt(iter-1) || !slices.Equal(p.Refs(iter), p.Refs(iter-1)) {
				out = append(out, iter)
				break
			}
		}
	}
	return out
}

// TestFastPathDifferentialBuiltin runs the exact-vs-fast differential on
// the built-in Go workloads, whose content epochs must equal the
// per-iteration derivation before and after the runs. Nek5000's hot set
// drifts every 10 iterations, so its windows end at content epochs rather
// than at the end of the run. Every case must engage the fast path, under
// the Unimem runtime and a static baseline alike.
func TestFastPathDifferentialBuiltin(t *testing.T) {
	eng := NewEngine(false, nil) // full length, uncached
	m := machine.PlatformA().WithNVMLatencyFactor(4)
	strategies := []struct {
		name string
		st   Strategy
	}{
		{"unimem", StrategyUnimem()},
		{"hint-density", StrategyHintDensity()},
	}
	for _, w := range []*workloads.Workload{
		workloads.NewNPB("CG", "A", 2),
		workloads.NewNPB("MG", "A", 3),
		workloads.NewNPB("SP", "A", 4),
		workloads.NewNek5000("A", 2),
	} {
		want := derivedContentEpochs(w)
		if got := w.ContentEpochs(); !slices.Equal(got, want) {
			t.Fatalf("%s: content epochs %v, derivation %v", w.Name, got, want)
		}
		for _, s := range strategies {
			run := func(exact bool) (*app.Result, ExecInfo) {
				res, _, info, err := eng.ExecuteInfo(context.Background(), w, m, s.st, core.DefaultConfig(),
					app.Options{Ranks: w.Ranks, ExactSim: exact})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, s.name, err)
				}
				return res, info
			}
			exact, _ := run(true)
			fast, info := run(false)
			if !reflect.DeepEqual(exact, fast) {
				t.Errorf("%s/%s: results diverge with fast path on", w.Name, s.name)
			}
			if info.FastPath.AnalyticIters == 0 {
				t.Errorf("%s/%s: fast path never engaged: %+v", w.Name, s.name, info.FastPath)
			}
			t.Logf("%s/%s: %d ranks, %+v", w.Name, s.name, w.Ranks, info.FastPath)
		}
		if got := w.ContentEpochs(); !slices.Equal(got, want) {
			t.Errorf("%s: content epochs %v after the runs, derivation %v", w.Name, got, want)
		}
	}
}

// TestFastPathContentChangeNotSkipped: a workload whose content changes at
// iteration k — through its reference lists, or through a communication
// schedule alone — is never fast-forwarded across k, and its results equal
// exact simulation. The bound comes from the phases' epoch lists and
// communication schedules; no hash is involved anywhere on the path.
func TestFastPathContentChangeNotSkipped(t *testing.T) {
	const iters, k = 60, 30
	sweep := func(obj string) []phase.Ref {
		return []phase.Ref{{Object: obj, Accesses: 1e6, ReadFrac: 1, Pattern: machine.PointerChase}}
	}
	build := func(name string, epochs []workloads.RefEpoch, sched []workloads.ScaleWindow) *workloads.Workload {
		return &workloads.Workload{
			Name: name, Class: "C", Ranks: 2, Iterations: iters,
			Objects: []workloads.ObjectSpec{
				{Name: "hot", Size: 96 << 20, RefHint: 3e6},
				{Name: "cold", Size: 96 << 20, RefHint: 1e5},
				{Name: "buf", Size: 8 << 20},
			},
			Phases: []workloads.Phase{
				{Name: "sweep", Kind: phase.Compute, Flops: 10e6, Epochs: epochs},
				{Name: "exchange", Kind: phase.Comm, Comm: workloads.CommHalo, CommBytes: 256 << 10,
					CommSchedule: sched,
					Epochs:       workloads.Static(phase.Ref{Object: "buf", Accesses: 2e4, ReadFrac: 0.5, Pattern: machine.Stream})},
			},
		}
	}
	cases := []*workloads.Workload{
		build("refs-change", []workloads.RefEpoch{{From: 0, Refs: sweep("hot")}, {From: k, Refs: sweep("cold")}}, nil),
		build("schedule-change", workloads.Static(sweep("hot")...), []workloads.ScaleWindow{{From: k, Scale: 8}}),
	}
	// DRAM holds one of the two large latency-bound objects, so the switch
	// from hot to cold moves traffic onto the slow tier.
	m := machine.PlatformA().WithNVMLatencyFactor(4).WithDRAMCapacity(128 << 20)
	eng := NewEngine(false, nil) // full length, uncached
	for _, w := range cases {
		for _, s := range []struct {
			name string
			st   Strategy
		}{
			{"unimem", StrategyUnimem()},
			{"hint-density", StrategyHintDensity()},
		} {
			exact, _, _, err := eng.ExecuteInfo(context.Background(), w, m, s.st, core.DefaultConfig(),
				app.Options{Ranks: w.Ranks, ExactSim: true})
			if err != nil {
				t.Fatal(err)
			}
			ex := obs.NewExplain()
			fast, _, info, err := eng.ExecuteInfo(context.Background(), w, m, s.st, core.DefaultConfig(),
				app.Options{Ranks: w.Ranks, Explain: ex})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact, fast) {
				t.Errorf("%s/%s: results diverge with fast path on", w.Name, s.name)
			}
			ffs := ex.Doc().FastForwards
			if int64(len(ffs)) != info.FastPath.FastForwards {
				t.Fatalf("%s/%s: explain has %d fast-forwards, stats say %d",
					w.Name, s.name, len(ffs), info.FastPath.FastForwards)
			}
			before := false
			for _, ff := range ffs {
				if ff.EntryIter < k && ff.ExitIter > k {
					t.Errorf("%s/%s: fast-forward [%d, %d) skipped the content change at %d",
						w.Name, s.name, ff.EntryIter, ff.ExitIter, k)
				}
				before = before || ff.EntryIter < k
			}
			if !before {
				t.Errorf("%s/%s: no fast-forward before the change at %d; the bound is untested: %+v",
					w.Name, s.name, k, info.FastPath)
			}
			t.Logf("%s/%s: %+v %v", w.Name, s.name, info.FastPath, ffs)
		}
	}
}

// TestFastPathFullLengthStationary runs one full-length (uncapped)
// stationary workload through both paths: long stable windows are where
// extrapolation drift would compound if the arithmetic were not exact.
func TestFastPathFullLengthStationary(t *testing.T) {
	eng := NewEngine(false, nil)
	m := machine.PlatformA().WithNVMLatencyFactor(4)
	spec, err := scenario.Generate(scenario.Archetypes()[0], 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	spec.Ranks = 2
	spec.Iterations = 120
	w, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	run := func(exact bool) (*app.Result, ExecInfo) {
		res, _, info, err := eng.ExecuteInfo(context.Background(), w, m, StrategyUnimem(), cfg,
			app.Options{Ranks: spec.Ranks, ExactSim: exact})
		if err != nil {
			t.Fatal(err)
		}
		return res, info
	}
	exact, _ := run(true)
	fast, info := run(false)
	if !reflect.DeepEqual(exact, fast) {
		t.Fatal("full-length results diverge with fast path on")
	}
	if info.FastPath.AnalyticIters == 0 {
		t.Fatalf("fast path never engaged on a 120-iteration stationary run: %+v", info.FastPath)
	}
}

// TestFastPathSpeedupGate times matched exact-vs-fast executions of
// 9600-iteration stationary runs on the paper's two-tier platform and
// the capacity-tight three-tier stack (the multiple-choice-knapsack
// runtime path). Every pair must be deeply equal, so a fast path that is
// fast but wrong fails here too. Each cell's median speedup must reach
// 10x: both sides run in the same process on the same machine, so the
// ratio cancels the machine out, and long stationary runs sit far above
// the floor unless the fast path stopped engaging or stopped skipping.
func TestFastPathSpeedupGate(t *testing.T) {
	const iters, trials, minSpeedup = 9600, 5, 10.0
	tight := machine.PlatformHBMDDRNVM().
		WithTierCapacity(0, 96<<20).
		WithTierCapacity(1, 160<<20)
	tight.Name = "HBM+DDR+NVM/tight"
	cells := []struct {
		name string
		m    *machine.Machine
	}{
		{"stable/two-tier", machine.PlatformA().WithNVMLatencyFactor(4)},
		{"stable/three-tier", tight},
	}
	eng := NewEngine(false, nil) // uncached: every trial really executes
	for _, c := range cells {
		spec, err := scenario.Generate(scenario.ArchStable, 0x5EED)
		if err != nil {
			t.Fatal(err)
		}
		spec.Ranks = 2
		spec.Iterations = iters
		w, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		run := func(exact bool) (*app.Result, ExecInfo, time.Duration) {
			start := time.Now()
			res, _, info, err := eng.ExecuteInfo(context.Background(), w, c.m, StrategyUnimem(), cfg,
				app.Options{Ranks: spec.Ranks, ExactSim: exact})
			if err != nil {
				t.Fatal(err)
			}
			return res, info, time.Since(start)
		}
		run(false) // warm the engine's memoized calibration so neither side pays it

		var exactD, fastD []time.Duration
		var info ExecInfo
		for i := 0; i < trials; i++ {
			exact, _, de := run(true)
			fast, fi, df := run(false)
			if !reflect.DeepEqual(exact, fast) {
				t.Fatalf("%s trial %d: exact and fast-path results diverge", c.name, i)
			}
			exactD, fastD, info = append(exactD, de), append(fastD, df), fi
		}
		slices.Sort(exactD)
		slices.Sort(fastD)
		exactMed, fastMed := exactD[trials/2], fastD[trials/2]
		speedup := float64(exactMed) / float64(fastMed)
		var analytic float64
		if total := info.FastPath.AnalyticIters + info.FastPath.SimulatedIters; total > 0 {
			analytic = float64(info.FastPath.AnalyticIters) / float64(total)
		}
		t.Logf("%s: %d iters, exact %v fast %v -> %.1fx (analytic %.0f%%)",
			c.name, iters, exactMed.Round(time.Microsecond), fastMed.Round(time.Microsecond),
			speedup, 100*analytic)
		if !raceEnabled && speedup < minSpeedup {
			t.Errorf("%s: %.1fx speedup below the %.0fx floor (analytic fraction %.0f%%)",
				c.name, speedup, minSpeedup, 100*analytic)
		}
	}
}
