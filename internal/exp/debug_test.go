package exp

import (
	"os"
	"testing"

	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// TestDebugSPLat4 dumps Unimem's decision internals for SP under 4x
// latency NVM: which chunks the plan wants in DRAM and what strategy won.
// It is a development aid kept as a regression log; it has no assertions
// beyond successful execution.
func TestDebugSPLat4(t *testing.T) {
	s := NewSuite()
	var m *machine.Machine
	if os.Getenv("DBG_CFG") == "halfbw" {
		m = machine.PlatformA().WithNVMBandwidthFraction(0.5)
	} else {
		m = machine.PlatformA().WithNVMLatencyFactor(4)
	}
	name := os.Getenv("DBG_WL")
	var w *workloads.Workload
	switch name {
	case "", "SP":
		w = workloads.NewSP("C", 4)
	case "Nek5000":
		w = workloads.NewNek5000("C", 4)
	default:
		w = workloads.NewNPB(name, "C", 4)
	}
	cfg := s.unimemConfig(m)
	if os.Getenv("DBG_STEP2") != "" {
		cfg.EnableInitial = false
		cfg.EnablePartition = false
	}
	res, col, err := s.runUnimem(w, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dm := dramMachineFor(m)
	dres, err := s.runStatic(w, dm, "dram-only", nil)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := s.runStatic(w, m, "nvm-only", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SP 4xlat: dram=%.0fms nvm=%.2fx unimem=%.2fx migrations(rank0)=%d",
		float64(dres.TimeNS)/1e6, norm(nres.TimeNS, dres.TimeNS), norm(res.TimeNS, dres.TimeNS),
		res.Ranks[0].Migrations.Migrations)
	var r0 *core.Runtime
	for _, r := range col.Runtimes {
		st := "nil"
		if p := r.Plan(); p != nil {
			st = string(p.Strategy)
		}
		t.Logf("rank %d: decisions=%d strategy=%s migrations=%d movedMB=%d failed=%d resident=%v",
			r.Rank(), r.Decisions, st,
			res.Ranks[r.Rank()].Migrations.Migrations,
			res.Ranks[r.Rank()].Migrations.BytesMigrated>>20,
			res.Ranks[r.Rank()].Migrations.FailedNoSpace,
			r.DRAMResidents())
		if r.Rank() == 0 {
			r0 = r
		}
	}
	plan := r0.Plan()
	if plan == nil {
		t.Fatal("no plan")
	}
	for _, c := range r0.Candidates {
		t.Logf("candidate %s: predicted=%.1fms schedule=%d", c.Strategy, c.PredictedIterNS/1e6, len(c.Schedule))
	}
	t.Logf("strategy=%s predicted=%.1fms adoption=%d schedule=%d decisions=%d",
		plan.Strategy, plan.PredictedIterNS/1e6, len(plan.Adoption), len(plan.Schedule), r0.Decisions)
	for p := range plan.Desired {
		t.Logf("phase %d desired DRAM: %v", p, plan.DesiredNames(p))
		if plan.Strategy == "cross-phase-global" {
			break
		}
	}
	for _, mv := range plan.Adoption {
		t.Logf("adoption: %v", mv)
	}
	for _, mv := range plan.Schedule {
		t.Logf("schedule: %v", mv)
	}
}
