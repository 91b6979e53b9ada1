package core_test

import (
	"reflect"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// runFP runs w under the full runtime with the given options, returning
// the result, the rank-0 runtime, and the collected fast-path stats.
func runFP(t *testing.T, w *workloads.Workload, m *machine.Machine, opts app.Options) (*app.Result, *core.Runtime, app.FastPathStats) {
	t.Helper()
	var st app.FastPathStats
	if opts.FastPath == nil {
		opts.FastPath = &st
	}
	opts.Ranks = 1
	var rt *core.Runtime
	res, err := app.Run(w, m, opts, func(rank int) app.Manager {
		rt = core.NewRuntime(rank, core.DefaultConfig())
		return rt
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rt, *opts.FastPath
}

// driftyWorkload is tinyWorkload with a hot-object switch at the given
// iteration: the variation monitor must fire a re-profile there.
func driftyWorkload(iters, driftAt int) *workloads.Workload {
	w := tinyWorkload(iters)
	w.Name = "tiny-drift"
	w.Phases[0].Epochs = []workloads.RefEpoch{
		{From: 0, Refs: []phase.Ref{{Object: "hot", Accesses: 1.3e6, ReadFrac: 0.7, Pattern: machine.Stream}}},
		{From: driftAt, Refs: []phase.Ref{{Object: "cold", Accesses: 1.3e6, ReadFrac: 0.7, Pattern: machine.Stream}}},
	}
	return w
}

// TestFastPathStationaryMatchesExact is the base differential: a
// stationary run must produce byte-identical results with and without
// the analytic fast path, and the fast path must actually engage (a
// vacuously-equal pair proves nothing).
func TestFastPathStationaryMatchesExact(t *testing.T) {
	m := nvmMachine()
	exact, exrt, _ := runFP(t, tinyWorkload(40), m, app.Options{ExactSim: true})
	fast, fart, st := runFP(t, tinyWorkload(40), m, app.Options{})
	if !reflect.DeepEqual(exact, fast) {
		t.Fatalf("results diverge:\nexact %+v\nfast  %+v", exact, fast)
	}
	if st.AnalyticIters == 0 || st.FastForwards == 0 {
		t.Fatalf("fast path never engaged on a stationary run: %+v", st)
	}
	if st.SimulatedIters+st.AnalyticIters != 40 {
		t.Fatalf("iteration accounting: %d simulated + %d analytic != 40",
			st.SimulatedIters, st.AnalyticIters)
	}
	if exrt.Decisions != fart.Decisions ||
		!reflect.DeepEqual(exrt.ReprofileIters, fart.ReprofileIters) {
		t.Fatalf("adaptation history diverges: exact(%d %v) fast(%d %v)",
			exrt.Decisions, exrt.ReprofileIters, fart.Decisions, fart.ReprofileIters)
	}
}

// TestFastPathReprofileMidWindow drifts the workload mid-run: the
// re-profile the variation monitor fires must land on the same
// iteration with the fast path on (the forward scan may not skip across
// the drift point), and results stay identical.
func TestFastPathReprofileMidWindow(t *testing.T) {
	m := nvmMachine()
	w := driftyWorkload(48, 24)
	exact, exrt, _ := runFP(t, w, m, app.Options{ExactSim: true})
	fast, fart, st := runFP(t, w, m, app.Options{})
	if !reflect.DeepEqual(exact, fast) {
		t.Fatalf("results diverge under drift:\nexact %+v\nfast  %+v", exact, fast)
	}
	if len(exrt.ReprofileIters) == 0 {
		t.Fatal("drift did not re-profile; the edge is untested")
	}
	if !reflect.DeepEqual(exrt.ReprofileIters, fart.ReprofileIters) {
		t.Fatalf("re-profile timeline diverges: exact %v fast %v",
			exrt.ReprofileIters, fart.ReprofileIters)
	}
	if exrt.Decisions != fart.Decisions {
		t.Fatalf("decisions diverge: exact %d fast %d", exrt.Decisions, fart.Decisions)
	}
	if st.AnalyticIters == 0 {
		t.Fatalf("fast path never engaged around the drift: %+v", st)
	}
}

// TestFastPathExitsAtContentBoundary pins the forward scan's exit edge:
// every fast-forwarded window must end strictly before the workload's
// content change — the boundary iteration itself is simulated, so the
// variation monitor sees it.
func TestFastPathExitsAtContentBoundary(t *testing.T) {
	const driftAt = 24
	ex := obs.NewExplain()
	_, _, st := runFP(t, driftyWorkload(48, driftAt), nvmMachine(), app.Options{Explain: ex})
	if st.FastForwards == 0 {
		t.Fatalf("no fast-forward episodes recorded: %+v", st)
	}
	ffs := ex.Doc().FastForwards
	if int64(len(ffs)) != st.FastForwards {
		t.Fatalf("explain doc has %d fast-forwards, stats say %d", len(ffs), st.FastForwards)
	}
	for _, ff := range ffs {
		if ff.ExitIter <= ff.EntryIter {
			t.Fatalf("degenerate fast-forward window %+v", ff)
		}
		if ff.EntryIter < driftAt && ff.ExitIter > driftAt {
			t.Fatalf("fast-forward %+v skipped across the content boundary at %d", ff, driftAt)
		}
		if ff.ClockDeltaNS <= 0 {
			t.Fatalf("fast-forward %+v advanced no virtual time", ff)
		}
	}
}

// TestFastPathRecurringScheduleBlocksEntry: a plan that carries a
// recurring per-phase migration schedule never reaches steady state, so
// the fast path must sit out the whole run — and results still match.
func TestFastPathRecurringScheduleBlocksEntry(t *testing.T) {
	// Two phases with disjoint latency-bound hot objects and DRAM sized
	// for one: per-phase swapping pays (pointer-chase at 4x NVM latency
	// dwarfs the move cost), so the local search adopts a recurring
	// per-iteration schedule.
	w := &workloads.Workload{
		Name: "alternating", Class: "C", Ranks: 1, Iterations: 24,
		Objects: []workloads.ObjectSpec{
			{Name: "a", Size: 96 << 20},
			{Name: "b", Size: 96 << 20},
		},
		Phases: []workloads.Phase{
			{Name: "pa", Kind: phase.Compute, Flops: 10e6,
				Epochs: workloads.Static(phase.Ref{Object: "a", Accesses: 2e6, ReadFrac: 1, Pattern: machine.PointerChase})},
			{Name: "pb", Kind: phase.Compute, Flops: 10e6,
				Epochs: workloads.Static(phase.Ref{Object: "b", Accesses: 2e6, ReadFrac: 1, Pattern: machine.PointerChase})},
			{Name: "sync", Kind: phase.Comm, Comm: workloads.CommBarrier},
		},
	}
	m := machine.PlatformA().WithNVMLatencyFactor(4).WithDRAMCapacity(128 << 20)
	exact, _, _ := runFP(t, w, m, app.Options{ExactSim: true})
	fast, fart, st := runFP(t, w, m, app.Options{})
	if !reflect.DeepEqual(exact, fast) {
		t.Fatal("results diverge on the scheduled workload")
	}
	if plan := fart.Plan(); plan == nil || len(plan.Schedule) == 0 {
		t.Skip("local search adopted no recurring schedule; gate not exercised")
	}
	if st.AnalyticIters != 0 || st.FastForwards != 0 {
		t.Fatalf("fast path engaged despite a recurring migration schedule: %+v", st)
	}
}
