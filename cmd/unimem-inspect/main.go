// Command unimem-inspect runs one benchmark under the Unimem runtime and
// dumps the runtime's internals: the calibration, the candidate plans with
// their predicted iteration times, the winning strategy's desired DRAM
// sets and migration schedule (or, on multi-tier platforms, the
// multiple-choice-knapsack tier assignment), per-tier residency, and the
// per-rank migration/overlap statistics — the observability companion to
// cmd/unimem-bench.
//
// Usage:
//
//	unimem-inspect -workload SP -nvm lat4
//	unimem-inspect -workload Nek5000 -nvm halfbw -ranks 4
//	unimem-inspect -workload CG -platform hbm-ddr-nvm
//	unimem-inspect -workload MG -platform knl
//	unimem-inspect -scenario drift.json -nvm lat4
//	unimem-inspect -gen hot-rotation -seed 7
//	unimem-inspect -workload CG -trace out.json   (Chrome trace of the run)
//	unimem-inspect -workload CG -explain          (decision-attribution report)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"unimem"
)

func main() {
	var (
		name     = flag.String("workload", "CG", "CG|FT|BT|LU|SP|MG|Nek5000")
		scen     = flag.String("scenario", "", "load the workload from a declarative spec file (overrides -workload)")
		genArch  = flag.String("gen", "", "generate a synthetic scenario of this archetype (overrides -workload; see unimem.ScenarioArchetypes)")
		genSeed  = flag.Uint64("seed", 1, "scenario-generator seed for -gen")
		class    = flag.String("class", "C", "NPB class")
		ranks    = flag.Int("ranks", 4, "world size")
		nvm      = flag.String("nvm", "halfbw", "NVM config for -platform a: halfbw|quarterbw|lat2|lat4|edison")
		platform = flag.String("platform", "a", "platform: a (paper two-tier)|knl|cxl|hbm-ddr-nvm")
		dram     = flag.Int64("dram-mb", 0, "fastest-tier capacity in MiB (0: platform default; two-tier default 256)")
		traceOut = flag.String("trace", "", "write the Unimem run's span timeline as Chrome trace-event JSON to this file (open in chrome://tracing)")
		explain  = flag.Bool("explain", false, "print the Unimem run's decision-attribution report: per-phase cost terms, alternatives, migrations, regret")
	)
	flag.Parse()

	nvmSet, ranksSet, classSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "nvm":
			nvmSet = true
		case "ranks":
			ranksSet = true
		case "class":
			classSet = true
		}
	})
	if nvmSet && *platform != "a" {
		fmt.Fprintf(os.Stderr, "-nvm only applies to -platform a; platform %q has fixed tiers\n", *platform)
		os.Exit(2)
	}

	var m *unimem.Machine
	switch *platform {
	case "a":
		switch *nvm {
		case "halfbw":
			m = unimem.PlatformA().WithNVMBandwidthFraction(0.5)
		case "quarterbw":
			m = unimem.PlatformA().WithNVMBandwidthFraction(0.25)
		case "lat2":
			m = unimem.PlatformA().WithNVMLatencyFactor(2)
		case "lat4":
			m = unimem.PlatformA().WithNVMLatencyFactor(4)
		case "edison":
			m = unimem.Edison()
		default:
			fmt.Fprintf(os.Stderr, "unknown NVM config %q\n", *nvm)
			os.Exit(2)
		}
		if *dram == 0 {
			*dram = 256
		}
	case "knl":
		m = unimem.PlatformKNL()
	case "cxl":
		m = unimem.PlatformCXL()
	case "hbm-ddr-nvm":
		m = unimem.PlatformHBMDDRNVM()
	default:
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}
	if *dram > 0 {
		m = m.WithDRAMCapacity(*dram << 20)
	}

	var w *unimem.Workload
	var err error
	switch {
	case *scen != "":
		w, err = unimem.LoadWorkload(*scen)
		check(err)
		fmt.Printf("scenario %s (%d objects, %d phases, %d iterations)\n\n",
			*scen, len(w.Objects), len(w.Phases), w.Iterations)
	case *genArch != "":
		spec, err := unimem.GenerateScenario(unimem.ScenarioArchetype(*genArch), *genSeed)
		check(err)
		w, err = spec.Compile()
		check(err)
		fmt.Printf("generated %s (seed %d, digest %s)\n\n", spec.Name, *genSeed, spec.Digest())
	case *name == "Nek5000":
		w = unimem.NewNek5000(*class, *ranks)
	default:
		w = unimem.NewNPB(*name, *class, *ranks)
	}
	if *scen != "" || *genArch != "" {
		// Spec workloads bake in their own world size; an explicit -ranks
		// overrides it (like the fleet experiment's -ranks does), and
		// -class has no meaning for specs.
		if ranksSet {
			w.Ranks = *ranks
		}
		if classSet {
			fmt.Fprintln(os.Stderr, "-class is ignored for -scenario/-gen workloads")
		}
	}

	// One session serves every run below: the calibration is measured
	// once, and the baseline runs memoize in the session's cache.
	sess := unimem.New(m)
	ctx := context.Background()

	cal := sess.Calibration()
	fmt.Printf("machine  %s  tiers:", m.Name)
	for t := 0; t < m.NumTiers(); t++ {
		ts := m.Tier(unimem.TierKind(t))
		fmt.Printf("  [%d]%s %dMiB %.1fGB/s %gns", t, ts.Name,
			ts.CapacityBytes>>20, ts.BandwidthBps/1e9, ts.ReadLatNS)
	}
	fmt.Printf("\ncalib    %s\n\n", cal)

	fastOut, err := sess.Run(ctx, w, unimem.FastestOnly())
	check(err)
	fastRes := fastOut.Result
	slowOut, err := sess.Run(ctx, w, unimem.SlowestOnly())
	check(err)
	slowRes := slowOut.Result
	var tr *unimem.Trace
	if *traceOut != "" {
		tr = unimem.NewTrace()
	}
	// The attribution recorder is always attached (it never changes
	// results): the fast-forward timeline below reads its episode records,
	// and -explain prints the full report.
	ex := unimem.NewExplain()
	uniOut, err := sess.RunJob(ctx, unimem.Job{
		Workload: w,
		Strategy: unimem.Unimem(),
		Options:  unimem.Options{Trace: tr, Explain: ex},
	})
	check(err)
	res, rts := uniOut.Tiered(), uniOut.Runtimes
	if tr != nil {
		f, err := os.Create(*traceOut)
		check(err)
		check(tr.WriteChrome(f))
		check(f.Close())
		fmt.Printf("trace    %s (%d events)\n\n", *traceOut, len(tr.Events()))
	}

	norm := func(t int64) float64 { return float64(t) / float64(fastRes.TimeNS) }
	fmt.Printf("%-14s %12s %8s\n", "run", "time", "vs fast")
	fmt.Printf("%-14s %12.1fms %8.2fx\n", "fastest-only", float64(fastRes.TimeNS)/1e6, 1.0)
	fmt.Printf("%-14s %12.1fms %8.2fx\n", "slowest-only", float64(slowRes.TimeNS)/1e6, norm(slowRes.TimeNS))
	fmt.Printf("%-14s %12.1fms %8.2fx\n\n", "unimem", float64(res.TimeNS)/1e6, norm(res.TimeNS))

	// Outcome.Runtimes arrive in rank order.
	for _, rt := range rts {
		rr := res.Ranks[rt.Rank()]
		ms := rt.MoverStats()
		fmt.Printf("rank %d: decisions=%d migrations=%d moved=%dMiB failed=%d overlap=%.1f%% overhead=%.2f%%",
			rt.Rank(), rt.Decisions, rr.Migrations.Migrations,
			rr.Migrations.BytesMigrated>>20, rr.Migrations.FailedNoSpace,
			ms.OverlapFrac()*100,
			rr.OverheadNS/float64(rr.TimeNS)*100)
		if len(rt.ReprofileIters) > 0 {
			fmt.Printf(" reprofiled@%v", rt.ReprofileIters)
		}
		fmt.Println()
	}

	// Fast-path timeline: skips are unanimous across ranks, so one line
	// describes the whole world.
	if fp := uniOut.FastPath; fp.SimulatedIters+fp.AnalyticIters > 0 {
		fmt.Printf("fastpath: %d iterations simulated, %d analytic",
			fp.SimulatedIters, fp.AnalyticIters)
		for _, ff := range uniOut.Explain.FastForwards {
			fmt.Printf("  ff@[%d-%d]", ff.EntryIter, ff.ExitIter)
		}
		fmt.Println()
	}

	fmt.Printf("\nrank 0 per-tier residency:\n")
	for _, u := range res.Tiers {
		fmt.Printf("  tier %d %-5s %6dMiB resident, %d moves in\n",
			u.Tier, u.Name, u.ResidentBytes>>20, u.MovesIn)
	}

	rt := rts[0]
	if tp := rt.TierPlan(); tp != nil {
		// Multi-tier machines: dump the multiple-choice-knapsack assignment.
		fmt.Printf("\nmulti-tier placement (%s solver, total weight %.2fms):\n",
			tp.Solver, tp.TotalWeightNS/1e6)
		byTier := make(map[int][]string)
		for chunk, tier := range tp.Assign {
			byTier[tier] = append(byTier[tier], chunk)
		}
		for t := 0; t < m.NumTiers(); t++ {
			chunks := byTier[t]
			sort.Strings(chunks)
			fmt.Printf("  tier %d %-5s: %v\n", t, m.TierName(unimem.TierKind(t)), chunks)
		}
	}
	if plan := rt.Plan(); plan != nil {
		fmt.Printf("\nrank 0 candidate plans:\n")
		for _, p := range rt.Candidates {
			fmt.Printf("  %-20s predicted=%.2fms adoption=%d schedule=%d\n",
				p.Strategy, p.PredictedIterNS/1e6, len(p.Adoption), len(p.Schedule))
		}
		fmt.Printf("\nwinning strategy: %s\n", plan.Strategy)
		printed := map[string]bool{}
		for pid := range plan.Desired {
			names := plan.DesiredNames(pid)
			key := fmt.Sprint(names)
			if printed[key] {
				continue
			}
			printed[key] = true
			fmt.Printf("  phase %d desired DRAM: %v\n", pid, names)
		}
		if len(plan.Schedule) > 0 {
			fmt.Println("\nrecurring migration schedule (per iteration):")
			for _, mv := range plan.Schedule {
				fmt.Printf("  %v\n", mv)
			}
		}
		fmt.Printf("\nrank 0 final DRAM residents: %v\n", rt.DRAMResidents())
	}

	fmt.Println("\nper-phase mean durations (across iterations, rank 0):")
	for i, d := range res.PhaseNS {
		fmt.Printf("  %-16s %10.2fms  (%s)\n",
			w.Phases[i].Name, d/1e6, w.Phases[i].Kind)
	}

	if *explain {
		printExplain(uniOut.Explain)
	}
}

// printExplain renders the attribution document: every placement decision
// with its per-phase cost-term breakdown and rejected alternatives, the
// migration audit trail, and the regret summary.
func printExplain(doc *unimem.ExplainDoc) {
	fmt.Printf("\nexplain: %s on %s (%s, %d iterations)\n",
		doc.Workload, doc.Machine, doc.Strategy, doc.Iterations)
	for _, d := range doc.Decisions {
		fmt.Printf("\ndecision %d @iter %d  trigger=%s solver=%s model-cost=%.1fµs\n",
			d.Decision, d.Iter, d.Trigger, d.Solver, d.ModelNS/1e3)
		switch {
		case d.PredictedIterNS > 0:
			fmt.Printf("  predicted iteration %.3fms (oracle static %.3fms)\n",
				d.PredictedIterNS/1e6, d.OracleIterNS/1e6)
		case d.TotalWeightNS > 0:
			fmt.Printf("  knapsack objective %.3fms (oracle static iteration %.3fms)\n",
				d.TotalWeightNS/1e6, d.OracleIterNS/1e6)
		}
		for _, ph := range d.Phases {
			fmt.Printf("  phase %d %-16s %-8s %8.2fms  chosen benefit %.3fms\n",
				ph.Phase, ph.Name, ph.Kind, ph.DurNS/1e6, ph.BenefitNS/1e6)
			for _, c := range ph.Chunks {
				mark := " "
				if c.Chosen {
					mark = "*"
				}
				fmt.Printf("    %s %-12s %-10s %6.1fGB/s  benefit %8.3fms\n",
					mark, c.Chunk, c.Sensitivity, c.BWBps/1e9, c.BenefitNS/1e6)
			}
		}
		if len(d.Alternatives) > 0 {
			fmt.Println("  alternatives:")
			for _, a := range d.Alternatives {
				mark := " "
				if a.Chosen {
					mark = "*"
				}
				fmt.Printf("    %s %-20s predicted %8.3fms  delta %+8.3fms  moves %d\n",
					mark, a.Strategy, a.PredictedIterNS/1e6, a.DeltaNS/1e6, a.Moves)
			}
		}
		if len(d.Rejected) > 0 {
			fmt.Println("  rejected placements (capacity-denied, best tier first):")
			for _, rj := range d.Rejected {
				fmt.Printf("    %-12s held at tier %d, wanted tier %d  forgone %.3fms/iter\n",
					rj.Chunk, rj.ChosenTier, rj.BestTier, rj.DeltaNS/1e6)
			}
		}
	}
	if len(doc.Migrations) > 0 {
		fmt.Printf("\nmigrations (%d):\n", len(doc.Migrations))
		for _, mg := range doc.Migrations {
			line := fmt.Sprintf("  %-12s %s->%s %6dKiB  trigger=%-12s predicted %8.3fms realized %8.3fms",
				mg.Chunk, mg.From, mg.To, mg.Bytes>>10, mg.Trigger,
				mg.PredictedNS/1e6, float64(mg.RealizedNS)/1e6)
			if mg.Failed {
				line += "  FAILED"
				if mg.Error != "" {
					line += " (" + mg.Error + ")"
				}
			}
			fmt.Println(line)
		}
	}
	if len(doc.Reprofiles) > 0 {
		fmt.Println("\nreprofiles:")
		for _, rp := range doc.Reprofiles {
			fmt.Printf("  iter %d phase %-16s variation %.1f%% > %.0f%% threshold\n",
				rp.Iter, rp.Phase, rp.Variation*100, rp.Threshold*100)
		}
	}
	if len(doc.FastForwards) > 0 {
		fmt.Println("\nfast-forwards:")
		for _, ff := range doc.FastForwards {
			fmt.Printf("  iter %d-%d: %d iterations computed analytically (+%.2fms virtual)\n",
				ff.EntryIter, ff.ExitIter, ff.Iters, float64(ff.ClockDeltaNS)/1e6)
		}
	}
	if rg := doc.Regret; rg != nil {
		fmt.Printf("\nregret: realized %.2fms vs oracle-best static %.2fms -> %+.2fms (%+.2f%%)\n",
			float64(rg.RealizedNS)/1e6, float64(rg.OracleNS)/1e6,
			float64(rg.RegretNS)/1e6, rg.RegretFrac*100)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
