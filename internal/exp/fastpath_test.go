package exp

import (
	"context"
	"reflect"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
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

// TestFastPathDifferentialBuiltin runs the exact-vs-fast differential on
// the built-in Go workloads, which declare no content epochs, so every
// fast run bounds its windows by epochs the harness derives. Nek5000's
// hot set drifts every 10 iterations, so its windows end at derived
// epochs rather than at the end of the run. Every case must engage the
// fast path, under the Unimem runtime and a static baseline alike.
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
		if w.ContentEpochs != nil {
			t.Fatalf("%s declares content epochs; the derived path is untested", w.Name)
		}
		for _, s := range strategies {
			run := func(exact bool) (*app.Result, ExecInfo) {
				res, _, info, err := eng.ExecuteInfo(context.Background(), w, m, s.st, core.DefaultConfig(),
					app.Options{Ranks: w.Ranks, ExactSim: exact, MaterializeCap: 64 << 10})
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
		if w.ContentEpochs != nil {
			t.Errorf("%s: run mutated the shared workload's ContentEpochs", w.Name)
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
