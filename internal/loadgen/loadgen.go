// Package loadgen replays scenario-generator fleets against one
// unimem-serve daemon at a configured rate and reports the latency
// distribution and cache hit rate.
//
// Pacing is open-loop: every request has a fire time fixed up front
// (start + i/QPS), and latency is measured from that scheduled time, not
// from when a worker got around to sending. A server that stalls therefore
// shows up as tail latency on every request queued behind the stall —
// the coordinated-omission correction — instead of quietly shifting the
// whole schedule later.
//
// The generator is deterministic: the same seed, archetype selection and
// scenario count produce byte-identical request bodies, so two loadgen
// runs against different daemons populate the same key population and a
// repeat run measures pure cache-hit traffic.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unimem"
)

// Config parameterizes one load run.
type Config struct {
	// Target is the daemon's base URL, e.g. "http://localhost:8080"
	// (required).
	Target string
	// QPS is the aggregate open-loop request rate (required, > 0).
	QPS float64
	// Requests is the total request count. Zero derives it from
	// QPS*Duration; one of the two must be set.
	Requests int
	// Duration is the run length used when Requests is zero.
	Duration time.Duration
	// Workers is the sender-pool width (default 16). It bounds in-flight
	// requests, not the rate: when all workers are busy the schedule slips
	// and the slip is charged to latency.
	Workers int
	// Archetype restricts generation to one scenario archetype ("" cycles
	// all of them; see unimem.ScenarioArchetypes).
	Archetype string
	// Scenarios is the number of distinct scenarios generated per
	// archetype (default 4); requests cycle over the resulting bodies.
	Scenarios int
	// Seed drives deterministic scenario generation (default 1).
	Seed uint64
	// Strategy is the placement strategy each request runs under (default
	// xmem — a cached strategy, so repeat traffic can hit).
	Strategy string
	// Ranks overrides each scenario's world size (0: as generated).
	Ranks int
	// Platform is the platform name sent with each request (default "a").
	Platform string
	// Timeout bounds each request (default 60s).
	Timeout time.Duration
	// Client overrides the HTTP client (default: a fresh client with
	// Timeout). Useful for tests injecting a transport.
	Client *http.Client
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...interface{})
}

// Report is the run's result document.
type Report struct {
	// Target is the daemon base URL requests were sent to.
	Target string `json:"target"`
	// Strategy/Archetype/Scenarios/Seed echo the request population.
	Strategy  string `json:"strategy"`
	Archetype string `json:"archetype,omitempty"`
	Scenarios int    `json:"scenarios"`
	Seed      uint64 `json:"seed"`
	// Requests is the number sent; Errors counts transport failures and
	// non-200 responses (error responses still contribute latency).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Hits / HitRate count responses served from the run cache.
	Hits    int     `json:"hits"`
	HitRate float64 `json:"hit_rate"`
	// TargetQPS is the configured rate; AchievedQPS is requests divided
	// by the span from the first scheduled fire to the last completion.
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationNS  int64   `json:"duration_ns"`
	// Latency quantiles in microseconds, measured from each request's
	// scheduled fire time (open-loop; includes scheduling slip).
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// runBody mirrors serve's /run request shape (platform as a bare string,
// an inline scenario workload) without importing the serve package.
type runBody struct {
	Platform string `json:"platform"`
	Workload struct {
		Scenario *unimem.WorkloadSpec `json:"scenario"`
	} `json:"workload"`
	Strategy string `json:"strategy"`
	Seed     uint64 `json:"seed,omitempty"`
	Ranks    int    `json:"ranks,omitempty"`
}

// runReply is the slice of serve's /run response this package reads.
type runReply struct {
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
}

// Bodies generates the deterministic request-body population for cfg:
// Scenarios specs per selected archetype, marshaled once. Exported so the
// serve replay gate can size a warm round to the exact population a
// measured run will replay.
func Bodies(cfg Config) ([][]byte, error) {
	archetypes := unimem.ScenarioArchetypes()
	if cfg.Archetype != "" {
		want := unimem.ScenarioArchetype(strings.ToLower(strings.TrimSpace(cfg.Archetype)))
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
			return nil, fmt.Errorf("unknown archetype %q (want one of %s)",
				cfg.Archetype, strings.Join(names, ", "))
		}
	}
	perArch := cfg.Scenarios
	if perArch <= 0 {
		perArch = 4
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = "xmem"
	}
	platform := cfg.Platform
	if platform == "" {
		platform = "a"
	}
	var bodies [][]byte
	for _, a := range archetypes {
		for i := 0; i < perArch; i++ {
			spec, err := unimem.GenerateScenario(a, seed+uint64(i))
			if err != nil {
				return nil, fmt.Errorf("generating %s scenario %d: %w", a, i, err)
			}
			var rb runBody
			rb.Platform = platform
			rb.Workload.Scenario = spec
			rb.Strategy = strategy
			rb.Seed = seed
			rb.Ranks = cfg.Ranks
			b, err := json.Marshal(rb)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	return bodies, nil
}

// Run executes one load run and returns its report. The context cancels
// scheduling: requests not yet fired are dropped (they do not count as
// errors), in-flight ones finish.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	target := strings.TrimRight(strings.TrimSpace(cfg.Target), "/")
	if target == "" {
		return nil, fmt.Errorf("loadgen: a target is required")
	}
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: QPS must be > 0 (got %g)", cfg.QPS)
	}
	total := cfg.Requests
	if total <= 0 {
		if cfg.Duration <= 0 {
			return nil, fmt.Errorf("loadgen: set Requests or Duration")
		}
		total = int(cfg.QPS * cfg.Duration.Seconds())
		if total < 1 {
			total = 1
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 16
	}
	if workers > total {
		workers = total
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 60 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}

	bodies, err := Bodies(cfg)
	if err != nil {
		return nil, err
	}
	logf("loadgen: %d requests at %.1f QPS to %s, %d bodies, %d workers",
		total, cfg.QPS, target, len(bodies), workers)

	interval := time.Duration(float64(time.Second) / cfg.QPS)
	start := time.Now()

	// Workers claim request indices off a shared counter; each index has a
	// fixed fire time on the open-loop schedule.
	var next int64
	type shard struct {
		latNS []int64
		errs  int
		hits  int
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= total {
					return
				}
				fire := start.Add(time.Duration(i) * interval)
				if d := time.Until(fire); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				hit, err := fireOne(ctx, client, target, bodies[i%len(bodies)])
				// Open-loop latency: charged from the scheduled fire time.
				sh.latNS = append(sh.latNS, time.Since(fire).Nanoseconds())
				if err != nil {
					sh.errs++
				} else if hit {
					sh.hits++
				}
			}
		}(&shards[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Target:     target,
		Strategy:   cfg.Strategy,
		Archetype:  cfg.Archetype,
		Seed:       cfg.Seed,
		Scenarios:  len(bodies),
		TargetQPS:  cfg.QPS,
		DurationNS: elapsed.Nanoseconds(),
	}
	if rep.Strategy == "" {
		rep.Strategy = "xmem"
	}
	if rep.Seed == 0 {
		rep.Seed = 1
	}
	var lat []int64
	for i := range shards {
		sh := &shards[i]
		lat = append(lat, sh.latNS...)
		rep.Errors += sh.errs
		rep.Hits += sh.hits
	}
	rep.Requests = len(lat)
	if rep.Requests > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Requests)
		if secs := elapsed.Seconds(); secs > 0 {
			rep.AchievedQPS = float64(rep.Requests) / secs
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		q := func(p float64) float64 {
			return float64(lat[int(p*float64(len(lat)-1))]) / 1e3
		}
		rep.P50US, rep.P99US, rep.P999US = q(0.50), q(0.99), q(0.999)
		rep.MaxUS = float64(lat[len(lat)-1]) / 1e3
	}
	logf("loadgen: %d requests in %v (%.1f QPS achieved), %d errors, hit rate %.1f%%, p50 %.0fµs p99 %.0fµs p999 %.0fµs",
		rep.Requests, elapsed.Round(time.Millisecond), rep.AchievedQPS,
		rep.Errors, 100*rep.HitRate, rep.P50US, rep.P99US, rep.P999US)
	return rep, nil
}

// fireOne sends one /run request and reports whether it was a cache hit.
func fireOne(ctx context.Context, client *http.Client, target string, body []byte) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/run", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s: status %d: %s", target, resp.StatusCode, truncate(b, 200))
	}
	var rr runReply
	if err := json.Unmarshal(b, &rr); err != nil {
		return false, fmt.Errorf("%s: decoding response: %w", target, err)
	}
	if rr.Error != "" {
		return false, fmt.Errorf("%s: job error: %s", target, rr.Error)
	}
	return rr.CacheHit, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
