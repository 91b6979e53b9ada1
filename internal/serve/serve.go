// Package serve is the library's long-lived service front end: an
// HTTP/JSON daemon (cmd/unimem-serve) that owns a pool of Sessions — one
// per distinct machine, sharded by performance fingerprint — over one
// shared, bounded, disk-persistent RunCache, so many clients' repeated
// deterministic runs execute once per process lifetime and survive
// restarts via versioned snapshots.
//
// Endpoints:
//
//	POST /run    one job on one platform -> one JSON outcome + cache counters
//	POST /batch  a job list -> NDJSON outcomes, streamed in job order
//	POST /fleet  scenario-generator-driven runs -> NDJSON outcomes
//	GET  /stats  cache, snapshot and per-session calibration introspection
//	GET  /metrics Prometheus text exposition (request latency histograms
//	              per endpoint x cache attribution, cache/pool gauges,
//	              mpisim event-core counters, fleet regret telemetry)
//	GET  /debug/runs ring buffer of the last N run summaries (request ID,
//	              timing, cache attribution, regret) for post-hoc joins
//	GET  /healthz liveness probe (echoes the build version)
//	GET  /readyz  readiness probe: 503 while a snapshot is merging or the
//	              daemon is draining on SIGTERM, 200 otherwise
//	GET  /snapshot         the run cache as a versioned snapshot document
//	POST /snapshot/merge   merge another daemon's snapshot document into
//	              the live cache (newer completed run wins; in-flight never
//	              merged)
//
// Every request carries an X-Request-Id (also attached to error bodies
// and log lines); POST /run?trace=1 additionally returns the run's span
// timeline as Chrome trace-event JSON in the response's "trace" field,
// and POST /run?explain=1 returns the run's decision-attribution document
// (per-phase Eq. 1-4 cost terms, rejected alternatives, migration audit
// trail, regret vs the oracle-best static placement) in the "explain"
// field, with the request ID stamped into both documents.
//
// Every request is bounded by its own context: a disconnecting client
// aborts the in-flight simulated worlds exactly like a cancelled library
// caller (the same plumbing Session.Run uses). /batch and /fleet stream
// through Session.Stream's bounded window, so arbitrarily large fleets
// hold O(window) results in memory.
package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unimem"
	"unimem/internal/app"
	"unimem/internal/exp"
	"unimem/internal/lru"
)

// Config parameterizes a Server.
type Config struct {
	// CacheDir is the snapshot directory: the run cache loads from
	// CacheDir/runcache.json at startup and saves there on SaveCache /
	// Close ("" disables persistence).
	CacheDir string
	// MaxEntries / MaxBytes bound the run cache (0: unbounded); eviction
	// is least-recently-used.
	MaxEntries int
	MaxBytes   int64
	// Workers is each session's worker-pool width (0: GOMAXPROCS).
	Workers int
	// Window is each session's Stream window (0: library default).
	Window int
	// Quick caps workload iteration counts — fast, less faithful runs.
	Quick bool
	// Seed is the harness seed applied to jobs that carry none (0: the
	// library's default seed).
	Seed uint64
	// Logf receives operational log lines (nil: silent).
	Logf func(format string, args ...any)
	// Logger receives structured request logs: completions at Debug,
	// slow requests and 5xx responses at Warn (nil: discarded).
	Logger *slog.Logger
	// DisableMetrics turns off the /metrics registry and all request
	// instrumentation (request IDs and logging stay on).
	DisableMetrics bool
	// MaxSessions bounds the session pool (0: the default, 64).
	MaxSessions int
	// SlowRequest is the latency above which a request logs at Warn
	// (0: 30s).
	SlowRequest time.Duration
	// DebugRunHistory sizes the /debug/runs ring of recent run summaries
	// (0: 64). The ring, like /metrics, is off under DisableMetrics.
	DebugRunHistory int
}

// snapshotFileName is the cache snapshot inside CacheDir.
const snapshotFileName = "runcache.json"

// maxPoolSessions bounds the session pool; least-recently-used machines
// are evicted (their memoized calibration is the only loss — the run
// cache is shared and unaffected).
const maxPoolSessions = 64

// maxBatchJobs bounds one /batch request.
const maxBatchJobs = 4096

// maxFleetCount bounds /fleet's scenarios-per-archetype.
const maxFleetCount = 32

// maxFleetStrategies bounds /fleet's strategy list: together with
// maxFleetCount and the six archetypes it caps a fleet's total job count
// (6 x 32 x 16 = 3072, under the batch limit).
const maxFleetStrategies = 16

// poolEntry is one pooled session.
type poolEntry struct {
	name string
	fp   string
	m    *unimem.Machine
	sess *unimem.Session
	runs atomic.Int64
}

// Server routes the service endpoints over a session pool and the shared
// run cache. Safe for concurrent use; construct with New.
type Server struct {
	cfg     Config
	cache   *unimem.RunCache
	loaded  int
	started time.Time
	metrics *serverMetrics
	// debug is the /debug/runs ring (nil when metrics are disabled — the
	// audit trail honors -no-metrics exactly like /metrics does).
	debug *debugRuns
	// draining flips on SIGTERM (SetDraining): /readyz answers 503 so load
	// balancers stop sending while in-flight requests finish.
	draining atomic.Bool
	// merging counts snapshot merges in progress; /readyz answers 503
	// while it is nonzero.
	merging atomic.Int32
	// snapMu guards the snapshot/merge bookkeeping below (snapshot.go).
	snapMu        sync.Mutex
	lastSave      time.Time
	lastSaveCount int
	lastMerge     time.Time
	lastMergeSt   exp.MergeStats
	mergeCount    int
	mergeAdded    int
	mergeReplaced int

	mu       sync.Mutex
	sessions *lru.Table[string, *poolEntry]
	// inflight gauges the run/batch/fleet handlers currently executing
	// (exposed on /stats; a cancelled batch must drive it back to zero
	// promptly — the regression the cancellation test pins). Guarded by
	// mu, NOT an atomic: /stats must read the gauge and the session list
	// in one consistent snapshot, so a scrape during a draining batch
	// can never pair a stale in-flight count with an already-updated pool
	// (or report sessions the drain has evicted).
	inflight int64

	mux *http.ServeMux
}

// New builds a Server: a bounded (or unbounded) run cache, warm-started
// from CacheDir's snapshot when one is present and compatible (an
// unreadable or version-mismatched snapshot logs a warning and serves
// cold — it is never an error to start without one).
func New(cfg Config) (*Server, error) {
	if cfg.MaxEntries < 0 || cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("serve: negative cache budget")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	var cache *unimem.RunCache
	if cfg.MaxEntries > 0 || cfg.MaxBytes > 0 {
		cache = unimem.NewRunCacheBounded(cfg.MaxEntries, cfg.MaxBytes)
	} else {
		cache = unimem.NewRunCache()
	}
	poolSize := cfg.MaxSessions
	if poolSize <= 0 {
		poolSize = maxPoolSessions
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		started:  time.Now(),
		sessions: lru.New[string, *poolEntry](poolSize),
	}
	s.metrics = newServerMetrics(s, cfg.DisableMetrics)
	if cfg.CacheDir != "" {
		n, err := cache.LoadSnapshot(s.SnapshotPath())
		if err != nil {
			cfg.Logf("serve: cache snapshot unusable, starting cold: %v", err)
		} else if n > 0 {
			cfg.Logf("serve: warm-started %d cache entries from %s", n, s.SnapshotPath())
		}
		s.loaded = n
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.instrument("/run", s.gauged(s.handleRun)))
	mux.HandleFunc("POST /batch", s.instrument("/batch", s.gauged(s.handleBatch)))
	mux.HandleFunc("POST /fleet", s.instrument("/fleet", s.gauged(s.handleFleet)))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /snapshot", s.instrument("/snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /snapshot/merge", s.instrument("/snapshot/merge", s.handleSnapshotMerge))
	if s.metrics.reg != nil {
		s.debug = newDebugRuns(cfg.DebugRunHistory)
		mux.Handle("GET /metrics", s.metrics.reg.Handler())
		mux.HandleFunc("GET /debug/runs", s.instrument("/debug/runs", s.handleDebugRuns))
	}
	s.mux = mux
	return s, nil
}

// gauged wraps an execution handler in the in-flight gauge (under mu —
// see the inflight field for why this is not an atomic).
func (s *Server) gauged(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.inflight++
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.inflight--
			s.mu.Unlock()
		}()
		h(w, r)
	}
}

// poolSnapshot returns the pooled sessions under the lock.
func (s *Server) poolSnapshot() []*poolEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions.Values()
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SnapshotPath is the cache snapshot file ("" when persistence is off).
func (s *Server) SnapshotPath() string {
	if s.cfg.CacheDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.CacheDir, snapshotFileName)
}

// LoadedEntries reports how many cache entries the startup snapshot
// contributed.
func (s *Server) LoadedEntries() int { return s.loaded }

// SaveCache persists the run cache to the snapshot path (atomic
// temp-file-and-rename) and returns the entry count written; a no-op
// without a CacheDir.
func (s *Server) SaveCache() (int, error) {
	if s.cfg.CacheDir == "" {
		return 0, nil
	}
	n, err := s.cache.SaveSnapshot(s.SnapshotPath())
	if err == nil {
		s.snapMu.Lock()
		s.lastSave = time.Now()
		s.lastSaveCount = n
		s.snapMu.Unlock()
	}
	return n, err
}

// Close persists the cache (when persistence is configured). The server
// itself is stateless beyond that — there is no listener to stop here;
// callers own the http.Server.
func (s *Server) Close() error {
	_, err := s.SaveCache()
	return err
}

// session returns the pooled session for m, creating it on first use.
// The pool is keyed by machine performance fingerprint — every request
// spelling of a physically identical platform shares one session, hence
// one calibration — and bounded with least-recently-used eviction.
func (s *Server) session(m *unimem.Machine) *poolEntry {
	fp := exp.Fingerprint(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sessions.Get(fp); ok {
		return e
	}
	opts := []unimem.Option{unimem.WithCache(s.cache)}
	if s.cfg.Workers > 0 {
		opts = append(opts, unimem.WithWorkers(s.cfg.Workers))
	}
	if s.cfg.Window > 0 {
		opts = append(opts, unimem.WithStreamWindow(s.cfg.Window))
	}
	if s.cfg.Quick {
		opts = append(opts, unimem.WithQuick())
	}
	if s.cfg.Seed != 0 {
		opts = append(opts, unimem.WithSeed(s.cfg.Seed))
	}
	e := &poolEntry{name: m.Name, fp: fp, m: m, sess: unimem.New(m, opts...)}
	s.sessions.Put(fp, e)
	return e
}

// httpError writes an errorJSON body with the given status. The body
// carries the request ID the instrument middleware issued (the same one
// in the X-Request-Id header and the server log), so a client-reported
// failure can be matched to its log lines.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-Id"),
	})
}

// decodeJSON decodes a bounded, strict (unknown fields rejected) request
// body into dst, answering 400 itself on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// writeJSON writes a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleRun executes one job and answers its outcome plus the post-run
// cache counters. Request-level problems (unknown platform, kernel,
// strategy, malformed scenario) are 400s; a failed run is a 200 whose
// outcome carries the error, mirroring the batch endpoints' row
// semantics.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, err := req.Platform.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := req.JobReq.job()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := stateOf(r)
	var trace *unimem.Trace
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		trace = unimem.NewTrace()
		job.Options.Trace = trace
		if st != nil {
			// Stamp the request ID into the exported document so a trace
			// file can be joined back to its log lines and run record.
			trace.Meta("request_id", st.id)
		}
	}
	var explain *unimem.Explain
	if v := r.URL.Query().Get("explain"); v == "1" || v == "true" {
		explain = unimem.NewExplain()
		if st != nil {
			explain.SetRunID(st.id)
		}
		job.Options.Explain = explain
	}
	entry := s.session(m)
	entry.runs.Add(1)
	out, _ := entry.sess.RunJob(r.Context(), job)
	setCacheLabel(r, out.CacheHit, out.Err == nil)
	resp := RunResponse{
		OutcomeJSON: outcomeJSON(*out),
		Platform:    entry.name,
		Fingerprint: entry.fp,
		Cache:       entry.sess.CacheStats(),
	}
	if trace != nil {
		if doc, err := trace.MarshalChrome(); err == nil {
			resp.Trace = doc
		}
	}
	if explain != nil {
		if doc, err := json.Marshal(explain.Doc()); err == nil {
			resp.Explain = doc
		}
	}
	if st != nil {
		run := &runRecord{
			Jobs:       1,
			Workload:   resp.Workload,
			Strategy:   resp.Strategy,
			TimeNS:     resp.TimeNS,
			Migrations: resp.Migrations,
			Error:      resp.Error,
		}
		if explain != nil {
			if doc := explain.Doc(); doc.Regret != nil {
				f := doc.Regret.RegretFrac
				run.RegretFrac = &f
			}
		}
		st.run = run
	}
	writeJSON(w, resp)
}

// streamOutcomes runs jobs through the session's bounded-window Stream
// and writes one NDJSON row per outcome, in job order, flushing each.
// annotate (optional) decorates each row with fan-out metadata. The
// channel is always drained — when the client disconnects, r.Context()
// aborts the fleet and the remaining rows drain into a dead connection.
func streamOutcomes(w http.ResponseWriter, r *http.Request, e *poolEntry, jobs []unimem.Job, annotate func(*OutcomeJSON)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	allHit, ran := true, false
	for o := range e.sess.Stream(r.Context(), jobs) {
		e.runs.Add(1)
		ran = true
		if !o.CacheHit || o.Err != nil {
			allHit = false
		}
		row := outcomeJSON(o)
		if annotate != nil {
			annotate(&row)
		}
		if err := enc.Encode(row); err != nil {
			// Client gone; keep draining so the emitter can finish.
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// A batch counts as a cache hit only when every job was one.
	setCacheLabel(r, allHit, ran)
}

// handleBatch executes a job list with RunAll semantics — deterministic
// job-order results regardless of worker interleaving — streamed as
// NDJSON at O(window) memory.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "jobs: empty batch")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		httpError(w, http.StatusBadRequest, "jobs: %d exceeds the %d-job batch limit", len(req.Jobs), maxBatchJobs)
		return
	}
	m, err := req.Platform.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := make([]unimem.Job, len(req.Jobs))
	for i, jr := range req.Jobs {
		if jobs[i], err = jr.job(); err != nil {
			httpError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
	}
	if st := stateOf(r); st != nil {
		st.run = &runRecord{Jobs: len(jobs)}
	}
	streamOutcomes(w, r, s.session(m), jobs, nil)
}

// handleFleet generates deterministic synthetic scenarios and runs each
// under the requested strategies, streaming NDJSON rows annotated with
// archetype, scenario name and seed.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req FleetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, err := req.Platform.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	archetypes := unimem.ScenarioArchetypes()
	if req.Archetype != "" {
		want := unimem.ScenarioArchetype(strings.ToLower(strings.TrimSpace(req.Archetype)))
		found := false
		for _, a := range archetypes {
			if a == want {
				archetypes = []unimem.ScenarioArchetype{a}
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(archetypes))
			for i, a := range archetypes {
				names[i] = string(a)
			}
			httpError(w, http.StatusBadRequest, "archetype: unknown %q (want one of %s)",
				req.Archetype, strings.Join(names, ", "))
			return
		}
	}
	count := req.Count
	if count <= 0 {
		count = 2
	}
	if count > maxFleetCount {
		httpError(w, http.StatusBadRequest, "count: %d exceeds the per-archetype limit %d", count, maxFleetCount)
		return
	}
	if err := checkRanks("ranks", req.Ranks); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	names := req.Strategies
	if len(names) == 0 {
		names = []string{"hint-density", "unimem"}
	}
	if len(names) > maxFleetStrategies {
		httpError(w, http.StatusBadRequest, "strategies: %d exceeds the %d-strategy limit", len(names), maxFleetStrategies)
		return
	}
	strategies := make([]unimem.Strategy, len(names))
	for i, n := range names {
		if strategies[i], err = unimem.ParseStrategy(n); err != nil {
			httpError(w, http.StatusBadRequest, "strategies[%d]: %v", i, err)
			return
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	if seed == 0 {
		seed = 0xF1EE7
	}

	type rowMeta struct {
		archetype string
		scenario  string
		seed      uint64
	}
	var jobs []unimem.Job
	var meta []rowMeta
	for _, a := range archetypes {
		for i := 0; i < count; i++ {
			spec, err := unimem.GenerateScenario(a, seed+uint64(i))
			if err != nil {
				httpError(w, http.StatusInternalServerError, "generating %s scenario: %v", a, err)
				return
			}
			if req.Ranks > 0 {
				spec.Ranks = req.Ranks
			}
			wl, err := spec.Compile()
			if err != nil {
				httpError(w, http.StatusInternalServerError, "compiling %s scenario: %v", a, err)
				return
			}
			for _, st := range strategies {
				jobs = append(jobs, unimem.Job{Workload: wl, Strategy: st})
				meta = append(meta, rowMeta{archetype: string(a), scenario: spec.Name, seed: seed + uint64(i)})
			}
		}
	}
	reqState := stateOf(r)
	if reqState != nil {
		reqState.run = &runRecord{Jobs: len(jobs)}
	}
	// With metrics on, every Unimem row carries an attribution document so
	// the sweep feeds the per-archetype regret/migration-benefit
	// instruments — the fleet becomes a live policy-quality dashboard.
	var explains []*unimem.Explain
	if s.metrics.reg != nil {
		explains = make([]*unimem.Explain, len(jobs))
		for i := range jobs {
			if jobs[i].Strategy.IsUnimem() {
				ex := unimem.NewExplain()
				if reqState != nil {
					ex.SetRunID(fmt.Sprintf("%s#%d", reqState.id, i))
				}
				explains[i] = ex
				jobs[i].Options.Explain = ex
			}
		}
	}
	// Per-archetype running means for the regret gauge; annotate runs on
	// the single streaming goroutine, so plain maps suffice.
	regretSum := map[string]float64{}
	regretN := map[string]int{}
	streamOutcomes(w, r, s.session(m), jobs, func(row *OutcomeJSON) {
		mt := meta[row.Index]
		row.Archetype = mt.archetype
		row.Scenario = mt.scenario
		row.Seed = mt.seed
		if explains == nil || explains[row.Index] == nil || row.Error != "" {
			return
		}
		doc := explains[row.Index].Doc()
		if doc.Regret != nil {
			regretSum[mt.archetype] += doc.Regret.RegretFrac
			regretN[mt.archetype]++
			s.metrics.observeFleetRow(mt.archetype, doc,
				regretSum[mt.archetype]/float64(regretN[mt.archetype]))
		} else {
			s.metrics.observeFleetRow(mt.archetype, doc, 0)
		}
	})
}

// handleStats answers the introspection snapshot: coherent cache
// counters, snapshot persistence state, and the pooled sessions with
// their memoized calibrations (computing a session's calibration on
// first introspection, exactly once per platform).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Cache:      s.cache.Stats(),
		FastPath:   app.ReadFastPathTotals(),
		Uptime:     time.Since(s.started).Seconds(),
		Build:      &BuildJSON{Version: Version(), Go: goVersion()},
		Platforms:  Platforms(),
		Strategies: unimem.StrategyNames(),
		Sessions:   []SessionJSON{},
	}
	if s.cfg.CacheDir != "" {
		resp.Snapshot = &SnapshotJSON{
			Path:          s.SnapshotPath(),
			LoadedEntries: s.loaded,
			Version:       exp.SnapshotVersion,
		}
	}
	s.statsSnapshot(&resp)
	// One consistent snapshot: the in-flight gauge and the session list
	// are read under the same critical section, so a scrape racing a
	// draining batch sees either (inflight>0, pre-eviction pool) or
	// (inflight updated, post-eviction pool) — never a mix.
	s.mu.Lock()
	resp.InFlight = s.inflight
	entries := s.sessions.Values()
	s.mu.Unlock()
	// Calibrations are computed outside the pool lock: a first-use
	// measurement must not block concurrent request routing.
	for _, e := range entries {
		c := e.sess.Calibration()
		resp.Sessions = append(resp.Sessions, SessionJSON{
			Platform:    e.name,
			Fingerprint: e.fp,
			Tiers:       e.m.NumTiers(),
			Runs:        e.runs.Load(),
			Calibration: CalibrationJSON{CFBw: c.CFBw, CFLat: c.CFLat, BWPeakBps: c.BWPeakBps},
		})
	}
	writeJSON(w, resp)
}

// handleHealthz is the liveness probe; it echoes the build version so an
// operator can tell which binary answered.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "version": Version()})
}
