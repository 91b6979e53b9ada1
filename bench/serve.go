package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unimem"
	"unimem/internal/serve"
)

const (
	serveRate    = 200 // requests per second, open loop
	serveSenders = 2   // sender goroutines, at most one keep-alive connection each
	// serveWarmPerArch X-Mem scenarios per archetype are warmed in set-up:
	// the 24 keys every hit goes to.
	serveWarmPerArch = 4
	// servePerArch X-Mem scenarios per archetype make up the population
	// the golden covers; fresh misses draw from those not warmed.
	servePerArch = 64
	// serveUnimemPerArch of them are also covered under Unimem.
	serveUnimemPerArch = 16
	serveTimeout       = 10 * time.Second
	// serveOpHeader carries the op index so the server-side timing wrapper
	// can attribute handler time to the op.
	serveOpHeader = "X-Bench-Op"
)

// serveOp is one request of the schedule.
type serveOp struct {
	key  string
	body []byte
	// explain requests /run?explain=1 (the Unimem ops).
	explain bool
	// hit is the expected cache class.
	hit bool
}

// reply is a request's raw outcome.
type reply struct {
	status int
	body   []byte
	err    error
}

// serveMixed drives an in-process unimem server on a loopback listener:
// 95% of the requests hit one of 24 pre-warmed X-Mem scenario keys, 2.5%
// run a fresh X-Mem scenario (a miss and a cache insert) and 2.5% run a
// Unimem scenario with ?explain=1, which is never cached. The seed picks
// the warm keys, the fresh and Unimem scenarios and the request order.
type serveMixed struct {
	warm    []serveOp
	ops     []serveOp
	bodies  map[string][]byte
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	replies []reply
	// handlerNS is each op's time inside the server's handler.
	handlerNS []atomic.Int64
}

func newServeMixed(o childOpts) (*serveMixed, error) {
	s := &serveMixed{bodies: map[string][]byte{}}
	if err := s.plan(o.seed, o.seconds); err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	for _, op := range s.warm {
		if _, _, err := decodeReply(s.post(op, -1), false); err != nil {
			s.close()
			return nil, fmt.Errorf("warming %s: %w", op.key, err)
		}
	}
	return s, nil
}

// op builds the request for scenario i of archetype a under a strategy.
func (s *serveMixed) op(strategy string, a unimem.ScenarioArchetype, i int) (serveOp, error) {
	key := fmt.Sprintf("%s/%s/%d", strategy, a, i)
	body, ok := s.bodies[key]
	if !ok {
		spec, err := unimem.GenerateScenario(a, uint64(i)+1)
		if err != nil {
			return serveOp{}, err
		}
		req := serve.RunRequest{Platform: serve.PlatformSpec{Name: "a"}}
		req.Workload.Scenario = spec
		req.Strategy = strategy
		if body, err = json.Marshal(req); err != nil {
			return serveOp{}, err
		}
		s.bodies[key] = body
	}
	return serveOp{key: key, body: body, explain: strategy == "unimem"}, nil
}

// plan draws the schedule: serveRate·seconds requests in two halves with
// exactly the same mix, so a traced run can compare an untraced half with
// a traced one. Misses cycle through the archetypes, whose scenarios
// differ in cost, so every seed gets the same archetype mix.
func (s *serveMixed) plan(seed uint64, seconds int) error {
	rng := rand.New(rand.NewPCG(seed, 0))
	archs := unimem.ScenarioArchetypes()
	var fresh [][]int // per archetype, the scenarios not warmed, in random order
	for _, a := range archs {
		perm := rng.Perm(servePerArch)
		for _, i := range perm[:serveWarmPerArch] {
			op, err := s.op("xmem", a, i)
			if err != nil {
				return err
			}
			s.warm = append(s.warm, op)
		}
		fresh = append(fresh, perm[serveWarmPerArch:])
	}

	n := serveRate * seconds
	misses := n / 40 // each miss kind is 2.5% of the requests
	if avail := len(archs) * (servePerArch - serveWarmPerArch); misses > avail {
		return fmt.Errorf("%d s at %d req/s needs %d fresh scenarios; the population has %d", seconds, serveRate, misses, avail)
	}
	const hitKind, freshKind, unimemKind = 0, 1, 2
	nFresh, nUnimem := 0, 0
	for h, size := range []int{n / 2, n - n/2} {
		m := misses / 2
		if h == 1 {
			m = misses - misses/2
		}
		kinds := make([]int, size)
		for k := 0; k < m; k++ {
			kinds[k], kinds[m+k] = freshKind, unimemKind
		}
		rng.Shuffle(size, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			var op serveOp
			var err error
			switch kind {
			case hitKind:
				op = s.warm[rng.IntN(len(s.warm))]
				op.hit = true
			case freshKind:
				a := nFresh % len(archs)
				op, err = s.op("xmem", archs[a], fresh[a][nFresh/len(archs)])
				nFresh++
			case unimemKind:
				op, err = s.op("unimem", archs[nUnimem%len(archs)], rng.IntN(serveUnimemPerArch))
				nUnimem++
			}
			if err != nil {
				return err
			}
			s.ops = append(s.ops, op)
		}
	}
	return nil
}

// start brings the server up on a loopback listener behind a wrapper
// that times the handler.
func (s *serveMixed) start() error {
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.handlerNS = make([]atomic.Int64, len(s.ops))
	inner := srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		if i, err := strconv.Atoi(r.Header.Get(serveOpHeader)); err == nil && i >= 0 && i < len(s.handlerNS) {
			s.handlerNS[i].Store(int64(time.Since(start)))
		}
	})}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveSenders, MaxIdleConnsPerHost: serveSenders},
		Timeout:   serveTimeout,
	}
	return nil
}

func (s *serveMixed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // the process exits next; a slow drain only delays it
	<-s.served
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // no cache directory, so there is nothing to save
}

// post sends one request; idx >= 0 tags it for the handler timing.
func (s *serveMixed) post(op serveOp, idx int) reply {
	url := s.base + "/run"
	if op.explain {
		url += "?explain=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(op.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if idx >= 0 {
		req.Header.Set(serveOpHeader, strconv.Itoa(idx))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// decodeReply checks a /run reply and digests its deterministic outcome
// fields: everything in the outcome except the batch index and the cache
// class, which depends on what ran before.
func decodeReply(r reply, explain bool) (*serve.RunResponse, string, error) {
	if r.err != nil {
		return nil, "", r.err
	}
	if r.status != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(r.body, &rr); err != nil {
		return nil, "", err
	}
	if rr.Error != "" {
		return nil, "", fmt.Errorf("run failed: %s", rr.Error)
	}
	if explain && len(rr.Explain) == 0 {
		return nil, "", fmt.Errorf("no explain document")
	}
	oj := rr.OutcomeJSON
	oj.Index, oj.CacheHit = 0, false
	d, err := digestJSON(oj)
	return &rr, d, err
}

func (s *serveMixed) measure(trace bool) ([]opResult, map[string]float64, error) {
	n := len(s.ops)
	s.replies = make([]reply, n)
	interval := time.Second / serveRate
	start := time.Now().Add(10 * time.Millisecond)
	boundary := n / 2 // first op of the traced half

	var (
		tr       *tracer
		trErr    error
		cpuB     float64
		tB       time.Time
		statsB   unimem.CacheStats
		switched = make(chan struct{})
	)
	rss := startRSS()
	c0 := cpuSeconds()
	if trace {
		go func() {
			defer close(switched)
			time.Sleep(time.Until(start.Add(time.Duration(boundary) * interval)))
			cpuB, tB = cpuSeconds(), time.Now()
			if statsB, trErr = s.stats(); trErr == nil {
				tr, trErr = startTrace()
			}
		}()
	} else {
		close(switched)
	}
	lat, late := openLoop(n, start, interval, serveSenders, func(i int) { s.replies[i] = s.post(s.ops[i], i) })
	end, cpuEnd := time.Now(), cpuSeconds()
	rssMiB, err := rss.p90()
	<-switched
	if err == nil {
		err = trErr
	}
	if err != nil {
		return nil, nil, err
	}

	ops := make([]opResult, n)
	replies := make([]*serve.RunResponse, n)
	for i, op := range s.ops {
		rr, d, err := decodeReply(s.replies[i], op.explain)
		if err == nil && rr.CacheHit != op.hit {
			err = fmt.Errorf("cache_hit %v, want %v", rr.CacheHit, op.hit)
		}
		ops[i] = opResult{key: op.key, latency: lat[i], digest: d, err: err}
		replies[i] = rr
	}
	if !trace {
		m := map[string]float64{"wall_s": end.Sub(start).Seconds(), "cpu_s": cpuEnd - c0, "rss_p90_mb": rssMiB}
		return ops, m, opLatencies(ops, m)
	}

	lm := newLayerMetrics()
	if err := tr.stop(lm); err != nil {
		return nil, nil, err
	}
	statsE, err := s.stats()
	if err != nil {
		return nil, nil, err
	}
	hits, misses := statsE.Hits-statsB.Hits, statsE.Misses-statsB.Misses
	lm["exp.cache_hits"], lm["exp.cache_misses"] = float64(hits), float64(misses)
	if hits+misses > 0 {
		lm["exp.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	lm["bench.trace_overhead_wall_frac"] = end.Sub(tB).Seconds()/tB.Sub(start).Seconds() - 1
	lm["bench.trace_overhead_cpu_frac"] = (cpuEnd-cpuB)/(cpuB-c0) - 1

	return ops, lm, s.tracedHalf(ops[:boundary], ops[boundary:], replies[boundary:], lat[boundary:], late[boundary:], lm)
}

// tracedHalf checks that the traced half reproduced the untraced half's
// outputs and writes the per-layer metrics read from its replies: handler
// time as a share of client latency, migrations and decisions, and how
// often the generator sent late.
func (s *serveMixed) tracedHalf(untraced, traced []opResult, replies []*serve.RunResponse, lat, late []time.Duration, lm map[string]float64) error {
	want := map[string]string{}
	for _, op := range untraced {
		if op.err == nil {
			want[op.key] = op.digest
		}
	}
	first := len(untraced)
	var hitLat, hitHandler, missLat, missHandler []float64
	var lateSends, migrations, decisions int
	var bytesMigrated int64
	for i, op := range traced {
		if d, ok := want[op.key]; ok && op.err == nil && d != op.digest {
			return fmt.Errorf("op %s: traced half output %s differs from untraced half %s", op.key, op.digest, d)
		}
		if late[i] > time.Millisecond {
			lateSends++
		}
		rr, sop := replies[i], s.ops[first+i]
		if rr == nil {
			continue
		}
		l, h := lat[i].Seconds(), time.Duration(s.handlerNS[first+i].Load()).Seconds()
		if sop.hit {
			hitLat, hitHandler = append(hitLat, l), append(hitHandler, h)
			continue
		}
		missLat, missHandler = append(missLat, l), append(missHandler, h)
		migrations += rr.Migrations
		bytesMigrated += rr.BytesMigrated
		if sop.explain {
			var doc unimem.ExplainDoc
			if err := json.Unmarshal(rr.Explain, &doc); err != nil {
				return fmt.Errorf("op %s: explain document: %w", op.key, err)
			}
			decisions += len(doc.Decisions)
		}
	}
	if len(hitLat) > 0 {
		lm["serve.handler_hit_share"] = median(hitHandler) / median(hitLat)
	}
	if len(missLat) > 0 {
		lm["serve.handler_miss_share"] = median(missHandler) / median(missLat)
	}
	lm["bench.late_send_frac"] = float64(lateSends) / float64(len(traced))
	lm["mover.migrations"] = float64(migrations)
	lm["mover.bytes_migrated"] = float64(bytesMigrated)
	lm["core.decisions"] = float64(decisions)
	return nil
}

// stats reads the run-cache counters from GET /stats, in process.
func (s *serveMixed) stats() (unimem.CacheStats, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		return unimem.CacheStats{}, fmt.Errorf("/stats: status %d", rec.Code)
	}
	var st serve.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return unimem.CacheStats{}, fmt.Errorf("/stats: %w", err)
	}
	return st.Cache, nil
}

// golden digests every request the population can issue.
func (s *serveMixed) golden() (map[string]string, error) {
	g := map[string]string{}
	for _, a := range unimem.ScenarioArchetypes() {
		for i := 0; i < servePerArch; i++ {
			strategies := []string{"xmem"}
			if i < serveUnimemPerArch {
				strategies = append(strategies, "unimem")
			}
			for _, st := range strategies {
				op, err := s.op(st, a, i)
				if err != nil {
					return nil, err
				}
				_, d, err := decodeReply(s.post(op, -1), op.explain)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", op.key, err)
				}
				g[op.key] = d
			}
		}
	}
	return g, nil
}

// openLoop runs n ops on a fixed schedule, op i due at start+i·interval.
// Each of the sender goroutines takes the next op as soon as it is free,
// waits for the op's due time if that is still ahead, and runs it. An op's
// latency is charged from its due time, not from when it was sent, so a
// stall also delays every op queued behind it; late is how long after its
// due time each op was sent.
func openLoop(n int, start time.Time, interval time.Duration, senders int, do func(i int)) (lat, late []time.Duration) {
	lat, late = make([]time.Duration, n), make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				late[i] = time.Since(due)
				do(i)
				lat[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return lat, late
}
