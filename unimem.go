// Package unimem is a reproduction of "Unimem: Runtime Data Management on
// Non-Volatile Memory-based Heterogeneous Main Memory" (Wu, Huang, Li —
// SC 2017): a lightweight runtime that automatically and transparently
// decides which data objects of an iterative MPI application live in the
// small fast DRAM tier and which in the large slow NVM tier of a
// heterogeneous memory system.
//
// The package bundles the runtime (online counter-based profiling, the
// Eq. 1-4 performance models, knapsack placement via phase-local and
// cross-phase global search, proactive helper-thread migration) together
// with the simulated substrate it manages: an N-tier memory hierarchy
// modelled as pure timing over simulated byte counts (the paper's
// two-tier DRAM+NVM system as the degenerate case, plus HBM/DDR/CXL/NVM
// presets placed by a multiple-choice knapsack), an MPI-like world of goroutine ranks with
// virtual clocks, emulated sampling performance counters, the NPB/Nek5000
// evaluation workloads, the X-Mem baseline, and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
// The entry point is a Session: a stateful, concurrent-safe handle bound
// to one machine that calibrates the platform once, memoizes baseline
// runs, and executes any workload under any placement Strategy:
//
//	m := unimem.PlatformA().WithNVMBandwidthFraction(0.5)
//	app := unimem.NewApp("myapp", 4, 50)
//	app.Object("field", 128<<20, unimem.WithHint(2e6))
//	app.ComputePhase("sweep", 20e6, unimem.Stream("field", 2e6, 0.5))
//	app.CommPhase("sum", unimem.Allreduce, 8, 1e6)
//	w := app.Build()
//
//	sess := unimem.New(m)
//	ctx := context.Background()
//	base, err := sess.Run(ctx, w, unimem.SlowestOnly())
//	uni, err := sess.Run(ctx, w, unimem.Unimem())
//	fmt.Println(float64(base.Result.TimeNS) / float64(uni.Result.TimeNS))
//
// Batches fan across the session's worker pool with deterministic result
// order, and the context cancels mid-fleet:
//
//	outs, err := sess.RunAll(ctx, []unimem.Job{
//		{Workload: w, Strategy: unimem.XMem()},
//		{Workload: w, Strategy: unimem.Unimem()},
//	})
//	for out := range sess.Stream(ctx, jobs) { ... }
//
// See the examples directory for complete programs, cmd/unimem-bench for
// the paper's experiments, and cmd/unimem-serve for the HTTP service
// front end (a session pool over a shared, bounded, disk-persistent run
// cache).
package unimem

import (
	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/exp"
	"unimem/internal/machine"
	"unimem/internal/model"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/scenario"
	"unimem/internal/workloads"
)

// Machine describes the simulated platform (tiers, CPU, network).
type Machine = machine.Machine

// TierSpec describes one memory tier's performance and capacity.
type TierSpec = machine.TierSpec

// TierKind indexes a tier in a machine's ordered hierarchy (0 fastest);
// DRAM and NVM name the two tiers of the paper's platforms.
type TierKind = machine.TierKind

// Pattern classifies an object's main-memory access behaviour.
type Pattern = machine.Pattern

// Tier and pattern constants, re-exported for workload construction.
const (
	DRAM = machine.DRAM
	NVM  = machine.NVM

	PatternStream       = machine.Stream
	PatternStencil      = machine.Stencil
	PatternRandom       = machine.Random
	PatternPointerChase = machine.PointerChase
)

// PlatformA returns the paper's 4-node evaluation cluster model; derive
// NVM configurations with WithNVMBandwidthFraction / WithNVMLatencyFactor.
func PlatformA() *Machine { return machine.PlatformA() }

// Edison returns the strong-scaling platform (NUMA-emulated NVM: 0.6x
// bandwidth, 1.89x latency).
func Edison() *Machine { return machine.Edison() }

// PlatformKNL returns a Knights-Landing-like HBM+DDR platform: a small,
// very-high-bandwidth on-package tier over large DDR.
func PlatformKNL() *Machine { return machine.PlatformKNL() }

// PlatformCXL returns a CXL-memory-expansion platform: local DDR over a
// large CXL-attached expander paying the link round trip.
func PlatformCXL() *Machine { return machine.PlatformCXL() }

// PlatformHBMDDRNVM returns the three-tier HBM+DDR+NVM stack (NVM at
// Table 1's STT-RAM performance point).
func PlatformHBMDDRNVM() *Machine { return machine.PlatformHBMDDRNVM() }

// Config selects Unimem runtime features and model parameters.
type Config = core.Config

// Runtime is the per-rank Unimem instance (exposed for inspection: plans,
// migration statistics, DRAM residency).
type Runtime = core.Runtime

// Calibration is the one-time platform measurement of CF_bw / CF_lat /
// BW_peak (§3.1.2).
type Calibration = model.Calibration

// DefaultConfig returns the full Unimem configuration: both searches,
// partitioning and initial placement enabled, the paper's thresholds.
func DefaultConfig() Config { return core.DefaultConfig() }

// Workload is a phase-structured iterative MPI application description.
type Workload = workloads.Workload

// Result is the outcome of running a workload: per-rank virtual times,
// migration statistics, phase profile.
type Result = app.Result

// Options configures a run (world size, seed, chunk size, optional trace
// recorder).
type Options = app.Options

// Trace is a per-run span recorder: attach one via Options.Trace (or
// Job.Options.Trace) and the harness, the Unimem runtime and the engine
// record a timeline — setup, each phase and iteration, placement
// decisions, migrations, reprofile triggers — against both the simulated
// virtual clock and the wall clock. Export it with WriteChrome as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto). Tracing
// never changes simulated time or results.
type Trace = obs.Trace

// NewTrace returns an empty trace recorder whose wall-clock origin is now.
func NewTrace() *Trace { return obs.NewTrace() }

// Explain is a per-run decision-attribution recorder: attach one via
// Options.Explain (or Job.Options.Explain) and the Unimem runtime records,
// for every placement decision, the Eq. 1-4 term breakdown behind the
// chosen placement and its rejected alternatives, every migration with its
// trigger and realized-vs-predicted cost, every re-profile, and a regret
// figure against the oracle-best static placement. Read the document with
// Doc (or from Outcome.Explain). Like Trace, attribution never changes
// simulated time or results; disabled it costs one pointer check.
type Explain = obs.Explain

// ExplainDoc is the exported attribution document (see Explain).
type ExplainDoc = obs.ExplainDoc

// DecisionRecord is one placement decision's attribution within an
// ExplainDoc.
type DecisionRecord = obs.DecisionRecord

// MigrationRecord is one migration's audit entry within an ExplainDoc.
type MigrationRecord = obs.MigrationRecord

// RegretRecord is an ExplainDoc's realized-vs-oracle regret figure.
type RegretRecord = obs.RegretRecord

// FastForwardRecord is one analytic fast-forward episode within an
// ExplainDoc: the iteration window skipped and the virtual time it
// advanced in one step.
type FastForwardRecord = obs.FastForwardRecord

// FastPathStats summarizes the analytic fast path's work in one run: how
// many iterations were simulated event-for-event versus computed
// analytically, and in how many fast-forward episodes (see
// Outcome.FastPath and WithExactSim).
type FastPathStats = app.FastPathStats

// NewExplain returns an empty attribution recorder.
func NewExplain() *Explain { return obs.NewExplain() }

// TierUsage summarizes one tier's residency and migration traffic for one
// rank of a tiered run.
type TierUsage struct {
	// Tier is the hierarchy index (0 fastest); Name its technology label.
	Tier int
	Name string
	// ResidentBytes is the rank's simulated bytes resident at run end.
	ResidentBytes int64
	// MovesIn counts migrations that arrived in this tier during the run.
	MovesIn int
}

// TieredResult is a Result annotated with per-tier residency/migration
// detail (rank 0), as returned by Outcome.Tiered.
type TieredResult struct {
	*Result
	// Tiers has one entry per tier of the machine, fastest first.
	Tiers []TierUsage
}

// Calibrate performs the one-time platform calibration with STREAM and
// pointer-chasing microbenchmarks; install the result in Config.Calibration
// to share it across runs (as the paper does per platform).
func Calibrate(m *Machine) Calibration {
	return model.Calibrate(m, core.DefaultConfig().Counters, 0xCA1)
}

// Benchmarks returns the paper's evaluation workloads: the six NPB kernels
// plus Nek5000 at the given class and scale.
func Benchmarks(class string, ranks int) []*Workload {
	return workloads.EvalSuite(class, ranks)
}

// NewNPB builds one NPB kernel (CG, FT, BT, LU, SP, MG) by name.
func NewNPB(name, class string, ranks int) *Workload {
	return workloads.NewNPB(name, class, ranks)
}

// NewNek5000 builds the Nek5000 eddy production proxy.
func NewNek5000(class string, ranks int) *Workload {
	return workloads.NewNek5000(class, ranks)
}

// Experiment is a regenerated paper artifact.
type Experiment = exp.Table

// ExperimentSuite exposes the paper's tables and figures; see
// cmd/unimem-bench for the CLI.
type ExperimentSuite = exp.Suite

// NewExperimentSuite returns the experiment harness with paper defaults
// (Class C, 4 ranks).
func NewExperimentSuite() *ExperimentSuite { return exp.NewSuite() }

// Experiments returns the experiment IDs in presentation order and their
// runners.
func Experiments() ([]string, map[string]func(*ExperimentSuite) (*Experiment, error)) {
	order, reg := exp.Registry()
	out := make(map[string]func(*ExperimentSuite) (*Experiment, error), len(reg))
	for id, r := range reg {
		out[id] = r
	}
	return order, out
}

// Ref describes one object's per-phase traffic when building custom
// applications.
type Ref = phase.Ref

// WorkloadSpec is the declarative JSON description of a workload: objects,
// phases, comm kinds, static hints, and piecewise per-iteration traffic
// schedules. It round-trips every built-in workload exactly (see
// SaveWorkload) and is the schema behind the scenario generator.
type WorkloadSpec = scenario.Spec

// ScenarioArchetype names a synthetic-scenario family of the generator.
type ScenarioArchetype = scenario.Archetype

// ScenarioArchetypes returns the generator's archetypes in presentation
// order: pattern-drift, ws-growth, hot-rotation (time-varying traffic),
// load-imbalance, bursty-comm, and the stable control.
func ScenarioArchetypes() []ScenarioArchetype { return scenario.Archetypes() }

// LoadWorkload reads, validates and compiles a declarative workload spec
// from a JSON file; validation errors name the offending field. The
// compiled workload carries a content digest of its spec, which the
// experiment run cache keys on.
func LoadWorkload(path string) (*Workload, error) {
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	return spec.Compile()
}

// SaveWorkload captures a workload — built-in or hand-assembled — into
// the declarative schema and writes it as JSON. The capture writes out
// each phase's traffic epochs as they are, so Save -> Load -> Run is
// byte-identical to running the original.
func SaveWorkload(w *Workload, path string) error {
	spec, err := scenario.FromWorkload(w)
	if err != nil {
		return err
	}
	return spec.Save(path)
}

// GenerateScenario builds one synthetic scenario of the given archetype,
// deterministically from the seed, and returns its spec (save it, inspect
// it, or Compile it into a runnable workload).
func GenerateScenario(a ScenarioArchetype, seed uint64) (*WorkloadSpec, error) {
	return scenario.Generate(a, seed)
}
