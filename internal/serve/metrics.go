package serve

import (
	"net/http"
	"strconv"
	"time"

	"unimem"
	"unimem/internal/app"
	"unimem/internal/mpisim"
	"unimem/internal/obs"
)

// serverMetrics owns the Prometheus registry behind GET /metrics. All
// fields are nil when metrics are disabled (Config.DisableMetrics);
// every obs instrument no-ops on nil, so call sites stay unconditional.
type serverMetrics struct {
	reg *obs.Registry

	// requests/duration are labeled per endpoint; duration additionally
	// by cache attribution: "hit" (served entirely from the run cache),
	// "miss" (at least one fresh execution), or "none" (no run executed —
	// errors, or endpoints that don't run jobs).
	requests *obs.CounterVec
	duration *obs.HistogramVec
	// slow counts requests that crossed the -slow-request threshold (the
	// metric twin of the Warn log line).
	slow *obs.CounterVec

	// Fleet policy-quality telemetry, fed by /fleet's per-row attribution
	// documents (Unimem-strategy rows only): the latest sweep's mean
	// regret fraction per archetype, the per-scenario regret distribution,
	// and realized/predicted migration-time ratios.
	fleetRegret     *obs.GaugeVec
	fleetRegretHist *obs.HistogramVec
	migBenefit      *obs.HistogramVec
}

// endpointMetrics is one instrumented route's pre-resolved metric
// children: resolving the labeled children once at route registration
// makes the per-request hot path two atomic updates instead of two
// labeled map lookups. Every child is nil when metrics are disabled,
// and every obs update no-ops on nil.
type endpointMetrics struct {
	m        *serverMetrics
	endpoint string

	ok, badReq, fail         *obs.Counter
	durHit, durMiss, durNone *obs.Histogram
	slow                     *obs.Counter
}

// forEndpoint pre-resolves the endpoint's children for the common
// status codes and every cache-attribution label; uncommon codes fall
// back to the labeled lookup.
func (m *serverMetrics) forEndpoint(endpoint string) *endpointMetrics {
	return &endpointMetrics{
		m:        m,
		endpoint: endpoint,
		ok:       m.requests.With(endpoint, "200"),
		badReq:   m.requests.With(endpoint, "400"),
		fail:     m.requests.With(endpoint, "500"),
		durHit:   m.duration.With(endpoint, "hit"),
		durMiss:  m.duration.With(endpoint, "miss"),
		durNone:  m.duration.With(endpoint, "none"),
		slow:     m.slow.With(endpoint),
	}
}

// observe records one completed request.
func (e *endpointMetrics) observe(status int, cache string, seconds float64) {
	switch status {
	case http.StatusOK:
		e.ok.Inc()
	case http.StatusBadRequest:
		e.badReq.Inc()
	case http.StatusInternalServerError:
		e.fail.Inc()
	default:
		e.m.requests.With(e.endpoint, strconv.Itoa(status)).Inc()
	}
	switch cache {
	case "hit":
		e.durHit.Observe(seconds)
	case "miss":
		e.durMiss.Observe(seconds)
	default:
		e.durNone.Observe(seconds)
	}
}

// regretBuckets cover the regret-fraction range: negative values (the
// online runtime beat the static oracle's model prediction) through
// multiples of the oracle time.
var regretBuckets = []float64{-0.25, -0.1, -0.05, -0.02, -0.01, 0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// ratioBuckets cover realized/predicted migration-time ratios around the
// break-even point 1.
var ratioBuckets = []float64{0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// observeFleetRow feeds one /fleet Unimem row's attribution document into
// the policy-quality instruments; meanRegret is the sweep's running
// per-archetype mean, maintained by the caller.
func (m *serverMetrics) observeFleetRow(archetype string, doc *unimem.ExplainDoc, meanRegret float64) {
	if m.reg == nil || doc == nil {
		return
	}
	if doc.Regret != nil {
		m.fleetRegret.With(archetype).Set(meanRegret)
		m.fleetRegretHist.With(archetype).Observe(doc.Regret.RegretFrac)
	}
	for _, mg := range doc.Migrations {
		if mg.PredictedNS > 0 && !mg.Failed {
			m.migBenefit.With(archetype).Observe(float64(mg.RealizedNS) / mg.PredictedNS)
		}
	}
}

// newServerMetrics builds the registry and registers the scrape-time
// bridges into the server's live state (cache shards, session pool,
// worker pools, the mpisim event core). Returns an all-nil value when
// disabled.
func newServerMetrics(s *Server, disabled bool) *serverMetrics {
	if disabled {
		return &serverMetrics{}
	}
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("unimem_http_requests_total",
			"HTTP requests completed, by endpoint and status code.", "endpoint", "code"),
		duration: r.HistogramVec("unimem_http_request_duration_seconds",
			"HTTP request latency, by endpoint and run-cache attribution (hit/miss/none).",
			nil, "endpoint", "cache"),
		slow: r.CounterVec("unimem_serve_slow_requests_total",
			"Requests slower than the -slow-request threshold, by endpoint.", "endpoint"),
		fleetRegret: r.GaugeVec("unimem_fleet_regret",
			"Latest /fleet sweep's mean regret fraction (realized vs oracle-best static placement) per archetype.",
			"archetype"),
		fleetRegretHist: r.HistogramVec("unimem_fleet_regret_frac",
			"Per-scenario regret fraction of /fleet Unimem runs, by archetype.",
			regretBuckets, "archetype"),
		migBenefit: r.HistogramVec("unimem_fleet_migration_benefit_ratio",
			"Realized/predicted migration-time ratio of /fleet Unimem runs, by archetype (>1: queueing or contention ate the predicted benefit).",
			ratioBuckets, "archetype"),
	}

	buildInfo := r.CounterVec("unimem_build_info",
		"Build metadata; value is always 1.", "version", "go")
	buildInfo.With(Version(), goVersion()).Inc()
	r.GaugeFunc("unimem_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("unimem_http_inflight_requests",
		"run/batch/fleet handlers executing right now.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.inflight)
		})

	// Run cache: counters are monotonic totals read from the sharded
	// cache's coherent snapshot; entries/bytes are gauges.
	cache := func(f func() float64, name, help, typ string) {
		if typ == "counter" {
			r.CounterFunc(name, help, f)
		} else {
			r.GaugeFunc(name, help, f)
		}
	}
	cache(func() float64 { return float64(s.cache.Stats().Hits) },
		"unimem_cache_hits_total", "Run-cache hits.", "counter")
	cache(func() float64 { return float64(s.cache.Stats().Misses) },
		"unimem_cache_misses_total", "Run-cache misses (fresh executions).", "counter")
	cache(func() float64 { return float64(s.cache.Stats().Evictions) },
		"unimem_cache_evictions_total", "Run-cache LRU evictions.", "counter")
	cache(func() float64 { return float64(s.cache.Stats().Loaded) },
		"unimem_cache_loaded_total", "Run-cache entries warm-started from snapshots.", "counter")
	cache(func() float64 { return float64(s.cache.Stats().Entries) },
		"unimem_cache_entries", "Resident run-cache entries (including in-flight).", "gauge")
	cache(func() float64 { return float64(s.cache.Stats().Bytes) },
		"unimem_cache_bytes", "Approximate resident run-cache footprint.", "gauge")

	// Session pool and its worker pools.
	r.GaugeFunc("unimem_sessions", "Pooled sessions (one per distinct platform).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.sessions.Len())
		})
	pool := func(queued bool) func() float64 {
		return func() float64 {
			var total int64
			for _, e := range s.poolSnapshot() {
				q, run := e.sess.PoolStats()
				if queued {
					total += q
				} else {
					total += run
				}
			}
			return float64(total)
		}
	}
	r.GaugeFunc("unimem_pool_jobs_queued",
		"Batch jobs accepted but not yet dispatched, across all sessions.", pool(true))
	r.GaugeFunc("unimem_pool_jobs_running",
		"Batch jobs executing right now, across all sessions.", pool(false))

	// Analytic fast-path totals (process-wide, from internal/app).
	fp := app.ReadFastPathTotals
	r.CounterFunc("unimem_fastpath_ff_total",
		"Fast-forward episodes entered (steady windows skipped analytically).",
		func() float64 { return float64(fp().FastForwards) })
	iters := r.CounterFuncVec("unimem_fastpath_iters_total",
		"Workload iterations completed, by mode: simulated event-for-event or computed analytically.",
		"mode")
	iters.With(func() float64 { return float64(fp().SimulatedIters) }, "simulated")
	iters.With(func() float64 { return float64(fp().AnalyticIters) }, "analytic")

	// Discrete-event core totals (process-wide, from internal/mpisim).
	core := mpisim.ReadCoreStats
	r.CounterFunc("unimem_mpisim_worlds_total",
		"Simulated MPI worlds completed.", func() float64 { return float64(core().Worlds) })
	r.CounterFunc("unimem_mpisim_events_total",
		"Discrete-event scheduler dispatches.", func() float64 { return float64(core().Events) })
	r.CounterFunc("unimem_mpisim_collectives_total",
		"Completed collective rendezvous.", func() float64 { return float64(core().Collectives) })
	r.CounterFunc("unimem_mpisim_inbox_scans_total",
		"Linear tag-match scans over non-empty receive queues.",
		func() float64 { return float64(core().InboxScans) })
	r.CounterFunc("unimem_mpisim_inbox_scanned_total",
		"Messages examined by inbox scans (ratio to scans = mean scan length).",
		func() float64 { return float64(core().InboxScanned) })
	r.GaugeFunc("unimem_mpisim_max_runq_depth",
		"Deepest scheduler run queue observed in any world.",
		func() float64 { return float64(core().MaxRunqDepth) })

	return m
}
