// Benchmarks regenerating every table and figure of the paper's evaluation
// (§2.2 preliminary study and §5). Each benchmark runs its experiment's
// full workload set through the simulator and reports the headline metric
// as custom units, so `go test -bench=. -benchmem` reproduces the whole
// evaluation; cmd/unimem-bench prints the same artifacts as full tables.
//
// Experiments run in Quick mode under testing.B (iteration counts capped);
// use the CLI for paper-fidelity numbers.
package unimem_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"unimem"
	"unimem/internal/placement"
)

// runExp executes one experiment per benchmark iteration; optional
// configure hooks adjust the quick suite before the timed loop.
func runExp(b *testing.B, id string, configure ...func(*unimem.ExperimentSuite)) *unimem.Experiment {
	b.Helper()
	_, reg := unimem.Experiments()
	runner, ok := reg[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	s := unimem.NewExperimentSuite()
	s.Quick = true
	for _, fn := range configure {
		fn(s)
	}
	var tbl *unimem.Experiment
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err = runner(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tbl
}

// report extracts a numeric cell (row label, column index) as a metric.
func report(b *testing.B, tbl *unimem.Experiment, rowLabel string, col int, metric string) {
	b.Helper()
	for _, row := range tbl.Rows {
		if row[0] == rowLabel {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (NVM technology characteristics).
func BenchmarkTable1(b *testing.B) { runExp(b, "table1") }

// BenchmarkCalib regenerates the CF_bw/CF_lat/BW_peak calibration (§3.1.2).
func BenchmarkCalib(b *testing.B) { runExp(b, "calib") }

// BenchmarkTable3 regenerates Table 3 (target data objects).
func BenchmarkTable3(b *testing.B) { runExp(b, "table3") }

// BenchmarkFig2 regenerates Fig. 2 (NVM-only slowdown vs bandwidth);
// reports LU's slowdown at 1/2 bandwidth.
func BenchmarkFig2(b *testing.B) {
	tbl := runExp(b, "fig2")
	report(b, tbl, "LU", 1, "LU-halfbw-x")
}

// BenchmarkFig3 regenerates Fig. 3 (NVM-only slowdown vs latency);
// reports LU's slowdown at 2x latency.
func BenchmarkFig3(b *testing.B) {
	tbl := runExp(b, "fig3")
	report(b, tbl, "LU", 1, "LU-2xlat-x")
}

// BenchmarkFig4 regenerates Fig. 4 (SP per-object placement impact).
func BenchmarkFig4(b *testing.B) { runExp(b, "fig4") }

// BenchmarkFig9 regenerates Fig. 9 (basic test, 1/2 bandwidth NVM);
// reports the average Unimem normalized time.
func BenchmarkFig9(b *testing.B) {
	tbl := runExp(b, "fig9")
	report(b, tbl, "avg", 4, "unimem-avg-x")
	report(b, tbl, "avg", 2, "nvmonly-avg-x")
}

// BenchmarkFig10 regenerates Fig. 10 (basic test, 4x latency NVM).
func BenchmarkFig10(b *testing.B) {
	tbl := runExp(b, "fig10")
	report(b, tbl, "avg", 4, "unimem-avg-x")
	report(b, tbl, "avg", 2, "nvmonly-avg-x")
}

// BenchmarkFig11 regenerates Fig. 11 (technique ablation).
func BenchmarkFig11(b *testing.B) { runExp(b, "fig11") }

// BenchmarkTable4 regenerates Table 4 (migration details).
func BenchmarkTable4(b *testing.B) { runExp(b, "table4") }

// BenchmarkFig12 regenerates Fig. 12 (CG strong scaling on Edison-like
// NUMA-emulated NVM).
func BenchmarkFig12(b *testing.B) { runExp(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13 (DRAM size sensitivity).
func BenchmarkFig13(b *testing.B) {
	tbl := runExp(b, "fig13")
	report(b, tbl, "MG", 2, "MG-128MB-x")
}

// BenchmarkRuntimeDecision measures one full profile->model->knapsack->
// schedule decision on the richest workload (Nek5000's 48 objects), the
// critical-path cost the paper bounds as "pure runtime cost".
func BenchmarkRuntimeDecision(b *testing.B) {
	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
	cfg := unimem.DefaultConfig()
	cfg.Calibration = unimem.Calibrate(m)
	w := unimem.NewNek5000("C", 4)
	cp := *w
	cp.Iterations = 2 // profile + decide, minimal enforcement
	sess := unimem.New(m, unimem.WithConfig(cfg))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(ctx, &cp, unimem.Unimem()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrationPath measures the helper-thread migration machinery
// (enqueue -> real copy -> sync) end to end.
func BenchmarkMigrationPath(b *testing.B) {
	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
	cfg := unimem.DefaultConfig()
	cfg.Calibration = unimem.Calibrate(m)
	cfg.EnableInitial = false // force adoption migrations
	app := unimem.NewApp("mig", 1, 4)
	app.Object("a", 64<<20)
	app.ComputePhase("sweep", 5e6, unimem.Stream("a", 1e6, 0.5))
	app.CommPhase("sync", unimem.Barrier, 0, 0)
	w := app.Build()
	sess := unimem.New(m, unimem.WithConfig(cfg))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(ctx, w, unimem.Unimem()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReuse quantifies calibration memoization: a Session
// measures its platform once, so repeated runs pay the measurement once.
// "recalibrate-every-run" pays it per run explicitly by installing a
// fresh Calibration in every job's Config; "session-reuse" is the
// default path.
func BenchmarkSessionReuse(b *testing.B) {
	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
	app := unimem.NewApp("reuse", 1, 2)
	app.Object("a", 32<<20, unimem.WithHint(1e5))
	app.ComputePhase("sweep", 1e6, unimem.Stream("a", 1e5, 0.5))
	app.CommPhase("sync", unimem.Barrier, 0, 0)
	w := app.Build()
	ctx := context.Background()

	b.Run("recalibrate-every-run", func(b *testing.B) {
		sess := unimem.New(m)
		for i := 0; i < b.N; i++ {
			cfg := unimem.DefaultConfig()
			cfg.Calibration = unimem.Calibrate(m)
			job := unimem.Job{Workload: w, Strategy: unimem.Unimem(), Config: &cfg}
			if _, err := sess.RunJob(ctx, job); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-reuse", func(b *testing.B) {
		sess := unimem.New(m)
		for i := 0; i < b.N; i++ {
			if _, err := sess.Run(ctx, w, unimem.Unimem()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation regenerates the model-refinement ablation (DESIGN.md
// §6): full Unimem vs literal Eq. 3 / naive predictor / no hysteresis.
func BenchmarkAblation(b *testing.B) { runExp(b, "ablation") }

// BenchmarkTechSweep evaluates the named Table 1 technologies (STT-RAM,
// PCRAM, ReRAM) end to end: NVM-only vs Unimem on CG and MG.
func BenchmarkTechSweep(b *testing.B) { runExp(b, "techsweep") }

// BenchmarkTierscape regenerates the N-tier platform comparison
// (fastest-only / slowest-only / static / Unimem on KNL-like, CXL and
// HBM+DDR+NVM machines); reports the three-tier CG Unimem normalized time.
func BenchmarkTierscape(b *testing.B) {
	tbl := runExp(b, "tierscape")
	for _, row := range tbl.Rows {
		if row[0] == "HBM+DDR+NVM" && row[1] == "CG" {
			if v, err := strconv.ParseFloat(row[5], 64); err == nil {
				b.ReportMetric(v, "CG-3tier-x")
			}
		}
	}
}

// BenchmarkScenarioGen measures the synthetic scenario generator plus the
// spec round trip (generate -> encode -> parse -> compile) across every
// archetype — the fleet experiment's per-scenario setup cost.
func BenchmarkScenarioGen(b *testing.B) {
	archetypes := unimem.ScenarioArchetypes()
	var encoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := archetypes[i%len(archetypes)]
		spec, err := unimem.GenerateScenario(a, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		data, err := spec.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Compile(); err != nil {
			b.Fatal(err)
		}
		encoded += int64(len(data))
	}
	b.StopTimer()
	b.SetBytes(encoded / int64(b.N))
}

// BenchmarkScenarioFleet regenerates the randomized scenario-fleet
// experiment (2 scenarios/archetype in Quick mode) and reports the best
// drifting archetype's geomean Unimem-vs-static speedup.
func BenchmarkScenarioFleet(b *testing.B) {
	tbl := runExp(b, "scenariofleet", func(s *unimem.ExperimentSuite) { s.Fleet = 2 })
	best := 0.0
	for _, agg := range tbl.FleetAggregates {
		switch agg.Archetype {
		case "pattern-drift", "ws-growth", "hot-rotation":
			if agg.Geomean > best {
				best = agg.Geomean
			}
		}
	}
	b.ReportMetric(best, "drift-geomean-x")
}

// BenchmarkTieredPlacement measures the N-tier placement hot path: one
// multiple-choice-knapsack solve at the scale of the richest decision
// (hundreds of chunks, a three-tier machine with two constrained tiers) —
// the critical-path cost a multi-tier decision adds over the two-tier DP.
func BenchmarkTieredPlacement(b *testing.B) {
	const items = 256
	caps := []int64{128 << 20, 256 << 20, -1}
	in := make([]placement.TieredItem, items)
	for i := range in {
		size := int64(1+i%31) << 20
		in[i] = placement.TieredItem{
			Chunk: "c" + strconv.Itoa(i),
			Size:  size,
			WeightNS: []float64{
				float64((i*2654435761)%1000) * 1e4,
				float64((i*40503)%1000) * 1e4,
				0,
			},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := placement.SolveTiered(in, caps)
		if len(plan.Assign) != items {
			b.Fatal("incomplete assignment")
		}
	}
}
