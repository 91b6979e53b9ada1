package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"unimem"
	"unimem/internal/exp"
	"unimem/internal/workloads"
)

// This file is the service's wire vocabulary: the JSON request/response
// types of /run, /batch, /fleet and /stats, plus their resolution into
// the library's Machine/Workload/Strategy values. Resolution never
// panics — every malformed field comes back as a 400 with the offending
// field named, in the spirit of the scenario schema's validation errors.

// PlatformSpec selects one of the registered platforms, optionally
// re-parameterized. It decodes from either a bare string ("a") or an
// object ({"name": "a", "nvm_latency_factor": 4}).
type PlatformSpec struct {
	// Name is the registered platform: "a" (the paper's 4-node cluster,
	// the default), "edison", "knl", "cxl" or "hbm-ddr-nvm".
	Name string `json:"name"`
	// NVMLatencyFactor / NVMBandwidthFraction derive an NVM
	// parameterization of the platform, exactly like the library's
	// WithNVMLatencyFactor / WithNVMBandwidthFraction (0: leave as is).
	NVMLatencyFactor     float64 `json:"nvm_latency_factor,omitempty"`
	NVMBandwidthFraction float64 `json:"nvm_bandwidth_fraction,omitempty"`
}

// UnmarshalJSON accepts both the string and the object form. The object
// branch rejects unknown fields like the outer request decoder does — a
// typoed knob must be a 400, not a silently-default platform.
func (p *PlatformSpec) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		*p = PlatformSpec{Name: name}
		return nil
	}
	type plain PlatformSpec
	var v plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	*p = PlatformSpec(v)
	return nil
}

// platformRegistry lists the served platforms in presentation order. The
// pool shards sessions by the resolved machine's performance fingerprint,
// so two spellings of the same parameterization share one session.
var platformRegistry = []struct {
	name  string
	build func() *unimem.Machine
}{
	{"a", unimem.PlatformA},
	{"edison", unimem.Edison},
	{"knl", unimem.PlatformKNL},
	{"cxl", unimem.PlatformCXL},
	{"hbm-ddr-nvm", unimem.PlatformHBMDDRNVM},
}

// Platforms returns the registered platform names.
func Platforms() []string {
	out := make([]string, len(platformRegistry))
	for i, p := range platformRegistry {
		out[i] = p.name
	}
	return out
}

// resolve builds the machine the spec describes.
func (p PlatformSpec) resolve() (*unimem.Machine, error) {
	name := strings.ToLower(strings.TrimSpace(p.Name))
	if name == "" {
		name = "a"
	}
	for _, reg := range platformRegistry {
		if reg.name != name {
			continue
		}
		m := reg.build()
		if p.NVMLatencyFactor < 0 || p.NVMBandwidthFraction < 0 || p.NVMBandwidthFraction > 1 {
			return nil, fmt.Errorf("platform: nvm_latency_factor must be >= 0 and nvm_bandwidth_fraction in [0, 1]")
		}
		if p.NVMLatencyFactor > 0 {
			m = m.WithNVMLatencyFactor(p.NVMLatencyFactor)
		}
		if p.NVMBandwidthFraction > 0 {
			m = m.WithNVMBandwidthFraction(p.NVMBandwidthFraction)
		}
		return m, nil
	}
	return nil, fmt.Errorf("platform: unknown name %q (want one of %s)",
		p.Name, strings.Join(Platforms(), ", "))
}

// NPBReq selects one NPB kernel.
type NPBReq struct {
	// Name is one of CG, FT, BT, LU, SP, MG (case-insensitive).
	Name string `json:"name"`
	// Class is the NPB problem class A/B/C/D (default A — the smallest
	// full-fidelity class; pass C for the paper's evaluation size).
	Class string `json:"class,omitempty"`
	// Ranks is the MPI world size (default 4, the paper's baseline).
	Ranks int `json:"ranks,omitempty"`
}

// NekReq selects the Nek5000 eddy production proxy.
type NekReq struct {
	Class string `json:"class,omitempty"`
	Ranks int    `json:"ranks,omitempty"`
}

// WorkloadReq names a workload: exactly one of the three forms.
type WorkloadReq struct {
	// NPB builds a built-in NPB kernel.
	NPB *NPBReq `json:"npb,omitempty"`
	// Nek builds the Nek5000 proxy.
	Nek *NekReq `json:"nek,omitempty"`
	// Scenario is an inline declarative workload spec — the same JSON
	// schema scenario files use (objects, phases, schedules).
	Scenario *unimem.WorkloadSpec `json:"scenario,omitempty"`
}

// npbClasses are the accepted NPB problem classes.
var npbClasses = map[string]bool{"A": true, "B": true, "C": true, "D": true}

// maxRanks caps any request-supplied world size. The event-driven
// simulator core is O(ranks) per world (sparse message queues — the old
// engine's ranks² mailbox matrix forced a 512 cap here), and a 10k-rank
// world completes in well under a second, so the cap now only bounds the
// per-rank harness state (a simulated heap and a parked coroutine each)
// an untrusted request can make one daemon allocate.
const maxRanks = 16384

// checkRanks validates one request-supplied world size (0 means "use the
// default", negatives would panic the simulator's world constructor).
func checkRanks(field string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s: must be >= 0 (got %d)", field, n)
	}
	if n > maxRanks {
		return fmt.Errorf("%s: %d exceeds the %d-rank limit", field, n, maxRanks)
	}
	return nil
}

// build compiles the request into a runnable workload.
func (wr WorkloadReq) build() (*unimem.Workload, error) {
	set := 0
	for _, ok := range []bool{wr.NPB != nil, wr.Nek != nil, wr.Scenario != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("workload: exactly one of npb, nek, scenario must be set (got %d)", set)
	}
	switch {
	case wr.NPB != nil:
		if err := checkRanks("workload.npb.ranks", wr.NPB.Ranks); err != nil {
			return nil, err
		}
		name := strings.ToUpper(strings.TrimSpace(wr.NPB.Name))
		valid := false
		for _, n := range workloads.NPBNames {
			if n == name {
				valid = true
			}
		}
		if !valid {
			return nil, fmt.Errorf("workload.npb.name: unknown kernel %q (want one of %s)",
				wr.NPB.Name, strings.Join(workloads.NPBNames, ", "))
		}
		class := strings.ToUpper(strings.TrimSpace(wr.NPB.Class))
		if class == "" {
			class = "A"
		}
		if !npbClasses[class] {
			return nil, fmt.Errorf("workload.npb.class: unknown class %q (want A, B, C or D)", wr.NPB.Class)
		}
		return unimem.NewNPB(name, class, wr.NPB.Ranks), nil
	case wr.Nek != nil:
		if err := checkRanks("workload.nek.ranks", wr.Nek.Ranks); err != nil {
			return nil, err
		}
		class := strings.ToUpper(strings.TrimSpace(wr.Nek.Class))
		if class == "" {
			class = "A"
		}
		if !npbClasses[class] {
			return nil, fmt.Errorf("workload.nek.class: unknown class %q (want A, B, C or D)", wr.Nek.Class)
		}
		return unimem.NewNek5000(class, wr.Nek.Ranks), nil
	default:
		if err := wr.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("workload.scenario: %w", err)
		}
		if err := checkRanks("workload.scenario.ranks", wr.Scenario.Ranks); err != nil {
			return nil, err
		}
		w, err := wr.Scenario.Compile()
		if err != nil {
			return nil, fmt.Errorf("workload.scenario: %w", err)
		}
		return w, nil
	}
}

// JobReq is one unit of work: a workload under a strategy.
type JobReq struct {
	Workload WorkloadReq `json:"workload"`
	// Strategy is a ParseStrategy name: unimem, fastest-only,
	// slowest-only, dram-only, hint-density, xmem.
	Strategy string `json:"strategy"`
	// Seed overrides the server's harness seed for this job (0: server
	// default).
	Seed uint64 `json:"seed,omitempty"`
	// Ranks overrides the world size (0: the workload's own).
	Ranks int `json:"ranks,omitempty"`
}

// job resolves the request into a Session job.
func (jr JobReq) job() (unimem.Job, error) {
	if err := checkRanks("ranks", jr.Ranks); err != nil {
		return unimem.Job{}, err
	}
	w, err := jr.Workload.build()
	if err != nil {
		return unimem.Job{}, err
	}
	st, err := unimem.ParseStrategy(jr.Strategy)
	if err != nil {
		return unimem.Job{}, fmt.Errorf("strategy: %w", err)
	}
	return unimem.Job{
		Workload: w,
		Strategy: st,
		Options:  unimem.Options{Seed: jr.Seed, Ranks: jr.Ranks},
	}, nil
}

// RunRequest is /run's body: one job on one platform.
type RunRequest struct {
	Platform PlatformSpec `json:"platform"`
	JobReq
}

// BatchRequest is /batch's body: a job list on one platform, answered as
// NDJSON outcomes in job order.
type BatchRequest struct {
	Platform PlatformSpec `json:"platform"`
	Jobs     []JobReq     `json:"jobs"`
}

// FleetRequest is /fleet's body: generator-driven scenarios run under a
// strategy list.
type FleetRequest struct {
	Platform PlatformSpec `json:"platform"`
	// Archetype limits generation to one scenario archetype ("" runs all
	// six; see unimem.ScenarioArchetypes).
	Archetype string `json:"archetype,omitempty"`
	// Count is scenarios per archetype (default 2, max 32).
	Count int `json:"count,omitempty"`
	// Seed drives deterministic generation (default: the server seed).
	Seed uint64 `json:"seed,omitempty"`
	// Strategies to run each scenario under (default: hint-density and
	// unimem — the static-vs-adaptive race of the fleet experiment).
	Strategies []string `json:"strategies,omitempty"`
	// Ranks overrides each generated scenario's world size (0: as
	// generated).
	Ranks int `json:"ranks,omitempty"`
}

// TierJSON is one tier's residency/migration summary of a Unimem outcome.
type TierJSON struct {
	Tier          int    `json:"tier"`
	Name          string `json:"name"`
	ResidentBytes int64  `json:"resident_bytes"`
	MovesIn       int    `json:"moves_in"`
}

// OutcomeJSON is one job's result on the wire: /run's body, one /batch or
// /fleet NDJSON line.
type OutcomeJSON struct {
	// Index is the job's position in the batch (0 for /run); outcomes
	// arrive in index order.
	Index int `json:"index"`
	// Workload and Strategy echo what ran.
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Archetype/Scenario/Seed annotate /fleet outcomes.
	Archetype string `json:"archetype,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// TimeNS is the application execution time (slowest rank).
	TimeNS int64 `json:"time_ns"`
	// RankNS is the per-rank execution time in rank order.
	RankNS []int64 `json:"rank_ns,omitempty"`
	// Migrations/BytesMigrated total the run's migration traffic.
	Migrations    int   `json:"migrations"`
	BytesMigrated int64 `json:"bytes_migrated"`
	// Tiers carries rank 0's per-tier residency (Unimem strategy only).
	Tiers []TierJSON `json:"tiers,omitempty"`
	// CacheHit reports whether this outcome was served from the run
	// cache (always false for the uncached Unimem strategy).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the job's failure, if any (other fields are zero then).
	Error string `json:"error,omitempty"`
}

// outcomeJSON shapes a Session outcome for the wire.
func outcomeJSON(o unimem.Outcome) OutcomeJSON {
	oj := OutcomeJSON{Index: o.Index, Strategy: o.Job.Strategy.Name(), CacheHit: o.CacheHit}
	if o.Job.Workload != nil {
		oj.Workload = o.Job.Workload.Name
	}
	if o.Err != nil {
		oj.Error = o.Err.Error()
		return oj
	}
	if o.Result == nil {
		oj.Error = "no result"
		return oj
	}
	oj.TimeNS = o.Result.TimeNS
	oj.Migrations = o.Result.TotalMigrations()
	oj.BytesMigrated = o.Result.TotalBytesMigrated()
	for _, rr := range o.Result.Ranks {
		oj.RankNS = append(oj.RankNS, rr.TimeNS)
	}
	if tr := o.Tiered(); tr != nil {
		for _, u := range tr.Tiers {
			oj.Tiers = append(oj.Tiers, TierJSON{
				Tier: u.Tier, Name: u.Name,
				ResidentBytes: u.ResidentBytes, MovesIn: u.MovesIn,
			})
		}
	}
	return oj
}

// RunResponse is /run's reply: the outcome plus the server-wide cache
// counters after the run (single-client flows read hit/miss deltas off
// it; concurrent clients should use /stats).
type RunResponse struct {
	OutcomeJSON
	Platform    string            `json:"platform"`
	Fingerprint string            `json:"fingerprint"`
	Cache       unimem.CacheStats `json:"cache"`
	// Trace is the run's span timeline as Chrome trace-event JSON
	// (loadable in chrome://tracing), present only on /run?trace=1.
	Trace json.RawMessage `json:"trace,omitempty"`
	// Explain is the run's decision-attribution document (per-phase cost
	// terms, migration audit trail, regret), present only on
	// /run?explain=1. Its run_id equals the response's X-Request-Id.
	Explain json.RawMessage `json:"explain,omitempty"`
}

// CalibrationJSON is the one-time platform measurement on the wire.
type CalibrationJSON struct {
	CFBw      float64 `json:"cf_bw"`
	CFLat     float64 `json:"cf_lat"`
	BWPeakBps float64 `json:"bw_peak_bps"`
}

// SessionJSON describes one pooled session.
type SessionJSON struct {
	// Platform is the display name of the session's machine.
	Platform string `json:"platform"`
	// Fingerprint is the machine performance fingerprint the pool shards
	// on (the same string that versions cache keys).
	Fingerprint string `json:"fingerprint"`
	// Tiers is the machine's hierarchy depth.
	Tiers int `json:"tiers"`
	// Runs counts jobs this session has resolved — executed, failed, or
	// cancelled before dispatch (a cancelled batch's undispatched jobs
	// still resolve to context-error outcomes).
	Runs int64 `json:"runs"`
	// Calibration is the session's memoized platform measurement,
	// computed on first use (§3.1.2).
	Calibration CalibrationJSON `json:"calibration"`
}

// SnapshotJSON describes the cache persistence state.
type SnapshotJSON struct {
	// Path is the snapshot file (inside -cache-dir).
	Path string `json:"path"`
	// LoadedEntries counts entries warm-started from the snapshot.
	LoadedEntries int `json:"loaded_entries"`
	// Version is the envelope format version the server reads/writes.
	Version int `json:"version"`
	// AgeSeconds is seconds since the on-disk snapshot was written (file
	// mtime, so meaningful across restarts); -1 when no file exists yet.
	AgeSeconds float64 `json:"age_seconds"`
	// LastSaveUnixNS / LastSaveEntries describe this process's most recent
	// SaveCache (zero/absent before the first save).
	LastSaveUnixNS  int64 `json:"last_save_unix_ns,omitempty"`
	LastSaveEntries int   `json:"last_save_entries,omitempty"`
}

// MergeJSON summarizes the snapshot merges this process has performed
// (POST /snapshot/merge).
type MergeJSON struct {
	// LastUnixNS stamps the most recent merge.
	LastUnixNS int64 `json:"last_unix_ns"`
	// Last is the most recent merge's added/replaced/skipped counts.
	Last exp.MergeStats `json:"last"`
	// Merges counts merges performed; TotalAdded/TotalReplaced accumulate
	// across them.
	Merges        int `json:"merges"`
	TotalAdded    int `json:"total_added"`
	TotalReplaced int `json:"total_replaced"`
}

// StatsResponse is /stats's reply: cache effectiveness, persistence
// state, and per-session calibration introspection.
type StatsResponse struct {
	Cache unimem.CacheStats `json:"cache"`
	// FastPath totals the analytic fast path's work across every run this
	// process has executed: simulated versus analytically computed
	// iterations and fast-forward episodes.
	FastPath unimem.FastPathStats `json:"fastpath"`
	// InFlight gauges the run/batch/fleet handlers executing right now,
	// read in the same critical section as Sessions so the two are
	// mutually consistent.
	InFlight int64 `json:"in_flight_requests"`
	// Uptime is seconds since the server started.
	Uptime float64 `json:"uptime_seconds"`
	// Build identifies the serving binary.
	Build    *BuildJSON    `json:"build,omitempty"`
	Snapshot *SnapshotJSON `json:"snapshot,omitempty"`
	// Merge summarizes snapshot merges performed (absent before the
	// first).
	Merge      *MergeJSON    `json:"merge,omitempty"`
	Sessions   []SessionJSON `json:"sessions"`
	Platforms  []string      `json:"platforms"`
	Strategies []string      `json:"strategies"`
}

// BuildJSON identifies the serving binary (module version or VCS
// revision, plus the Go toolchain that built it).
type BuildJSON struct {
	Version string `json:"version"`
	Go      string `json:"go"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
	// RequestID matches the X-Request-Id header and the server's log
	// lines for this request ("" outside instrumented routes).
	RequestID string `json:"request_id,omitempty"`
}
