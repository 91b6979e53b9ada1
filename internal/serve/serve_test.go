package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"unimem"
	"unimem/internal/scenario"
	"unimem/internal/serve"
)

// newTestServer builds a serve.Server plus an httptest front end.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts body to url and decodes the response into out (when out
// is non-nil), failing the test on transport errors.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// getStats fetches /stats.
func getStats(t *testing.T, base string) serve.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// cgRun builds the canonical small /run request.
func cgRun(strategy string) serve.RunRequest {
	return serve.RunRequest{
		Platform: serve.PlatformSpec{Name: "a", NVMBandwidthFraction: 0.5},
		JobReq: serve.JobReq{
			Workload: serve.WorkloadReq{NPB: &serve.NPBReq{Name: "CG", Class: "A", Ranks: 2}},
			Strategy: strategy,
		},
	}
}

// TestServeRunConcurrentClients hammers one server from many clients
// under -race: every identical request must observe the identical
// deterministic time, the memoized strategy must execute exactly once,
// and the /stats snapshot must stay coherent throughout.
func TestServeRunConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 2})

	var ref serve.RunResponse
	if resp := postJSON(t, ts.URL+"/run", cgRun("xmem"), &ref); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request status %d", resp.StatusCode)
	}
	if ref.TimeNS <= 0 || ref.Error != "" {
		t.Fatalf("seed request outcome: %+v", ref.OutcomeJSON)
	}

	const clients = 8
	var wg sync.WaitGroup
	times := make([]int64, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Even clients repeat the memoized request; odd clients
			// interleave /stats probes with a distinct strategy.
			req := cgRun("xmem")
			if c%2 == 1 {
				req = cgRun("slowest-only")
			}
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			var rr serve.RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				errs[c] = err
				return
			}
			if rr.Error != "" {
				errs[c] = fmt.Errorf("run error: %s", rr.Error)
				return
			}
			times[c] = rr.TimeNS
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	var slowest int64
	for c := 0; c < clients; c++ {
		if c%2 == 0 && times[c] != ref.TimeNS {
			t.Errorf("client %d observed %d ns, want the deterministic %d ns", c, times[c], ref.TimeNS)
		}
		if c%2 == 1 {
			slowest = times[c]
		}
	}
	for c := 0; c < clients; c++ {
		if c%2 == 1 && times[c] != slowest {
			t.Errorf("slowest-only clients disagree: %d vs %d ns", times[c], slowest)
		}
	}

	st := getStats(t, ts.URL)
	// Two distinct cached runs total (xmem, slowest-only on one
	// workload+platform); everything else must have been a hit.
	if st.Cache.Misses != 2 {
		t.Errorf("cache executed %d runs, want 2 (one per distinct request)", st.Cache.Misses)
	}
	if st.Cache.Hits != clients-1 {
		t.Errorf("cache hits = %d, want %d", st.Cache.Hits, clients-1)
	}
	if len(st.Sessions) != 1 {
		t.Errorf("pool holds %d sessions, want 1 (all clients share one platform)", len(st.Sessions))
	} else {
		if st.Sessions[0].Calibration.CFBw <= 0 || st.Sessions[0].Calibration.BWPeakBps <= 0 {
			t.Errorf("session calibration not exposed: %+v", st.Sessions[0].Calibration)
		}
		if st.Sessions[0].Runs != clients+1 {
			t.Errorf("session runs = %d, want %d", st.Sessions[0].Runs, clients+1)
		}
	}
}

// TestServePoolShardsByFingerprint: different spellings of a physically
// identical platform share one pooled session; a physically different
// parameterization gets its own.
func TestServePoolShardsByFingerprint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	spellings := []serve.PlatformSpec{
		{Name: "a"},
		{Name: "A"},
		{Name: " a ", NVMLatencyFactor: 1}, // factor 1 is the identity
	}
	for _, p := range spellings {
		req := cgRun("slowest-only")
		req.Platform = p
		if resp := postJSON(t, ts.URL+"/run", req, &serve.RunResponse{}); resp.StatusCode != http.StatusOK {
			t.Fatalf("platform %+v: status %d", p, resp.StatusCode)
		}
	}
	if st := getStats(t, ts.URL); len(st.Sessions) != 1 {
		t.Fatalf("pool holds %d sessions for one physical platform, want 1", len(st.Sessions))
	}
	req := cgRun("slowest-only")
	req.Platform = serve.PlatformSpec{Name: "a", NVMLatencyFactor: 4}
	postJSON(t, ts.URL+"/run", req, &serve.RunResponse{})
	if st := getStats(t, ts.URL); len(st.Sessions) != 2 {
		t.Fatalf("pool holds %d sessions after a distinct parameterization, want 2", len(st.Sessions))
	}
}

// TestServeBatchOrdered: /batch streams NDJSON outcomes in job order
// with per-job results, whatever the completion interleaving.
func TestServeBatchOrdered(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 4})
	var jobs []serve.JobReq
	for _, st := range []string{"fastest-only", "slowest-only", "xmem", "unimem", "hint-density"} {
		jobs = append(jobs, serve.JobReq{
			Workload: serve.WorkloadReq{NPB: &serve.NPBReq{Name: "CG", Class: "A", Ranks: 2}},
			Strategy: st,
		})
	}
	body, _ := json.Marshal(serve.BatchRequest{Platform: serve.PlatformSpec{Name: "a"}, Jobs: jobs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	i := 0
	for sc.Scan() {
		var row serve.OutcomeJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Index != i {
			t.Fatalf("row %d carries index %d; stream must be in job order", i, row.Index)
		}
		if row.Error != "" {
			t.Fatalf("row %d: %s", i, row.Error)
		}
		if row.TimeNS <= 0 {
			t.Fatalf("row %d: no time", i)
		}
		if jobs[i].Strategy == "unimem" && len(row.Tiers) == 0 {
			t.Errorf("unimem row %d carries no tier annotation", i)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(jobs) {
		t.Fatalf("stream delivered %d rows, want %d", i, len(jobs))
	}
}

// TestServeBatchCancellation: a client that disconnects mid-/batch
// cancels the request context, which must abort the in-flight simulated
// worlds promptly and run the batch handler to completion — observable as
// the /stats in-flight gauge draining back to zero long before the
// full-length runs could have finished. The server must stay healthy for
// subsequent requests throughout.
func TestServeBatchCancellation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2}) // no Quick: real run lengths
	// The long jobs are 4000-iteration Unimem runs (as inline scenario
	// specs — the declarative schema captures the built-in exactly). The
	// service always runs the analytic fast path, which skips nearly every
	// iteration of these stationary runs, so each finishes in about a
	// millisecond: this test pins the drain after a client disconnect and
	// the server's health afterwards, not an abort landing mid-run (the
	// app and session cancellation tests cover that under exact
	// simulation).
	slow := unimem.NewNPB("CG", "C", 4)
	cp := *slow
	cp.Iterations = 4000
	spec, err := scenario.FromWorkload(&cp)
	if err != nil {
		t.Fatal(err)
	}
	long := serve.JobReq{Workload: serve.WorkloadReq{Scenario: spec}, Strategy: "unimem"}
	jobs := []serve.JobReq{{
		Workload: serve.WorkloadReq{NPB: &serve.NPBReq{Name: "CG", Class: "A", Ranks: 2}},
		Strategy: "slowest-only",
	}}
	for i := 0; i < 7; i++ {
		jobs = append(jobs, long)
	}
	body, _ := json.Marshal(serve.BatchRequest{Platform: serve.PlatformSpec{Name: "a"}, Jobs: jobs})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first streamed row, then walk away mid-batch.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first row: %v", err)
	}
	cancel()
	io.Copy(io.Discard, br) // drains whatever arrives until the server notices
	resp.Body.Close()

	// The batch handler must drain (in-flight gauge back to zero) well
	// before the uncancelled fleet could finish.
	deadline := time.Now().Add(90 * time.Second)
	for {
		if st := getStats(t, ts.URL); st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch handler still in flight 90s after client disconnect; worlds did not abort")
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("cancelled batch drained in %v", time.Since(start))

	// The server must stay responsive after the abort.
	var rr serve.RunResponse
	if resp := postJSON(t, ts.URL+"/run", cgRun("slowest-only"), &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel /run status %d", resp.StatusCode)
	}
	if rr.Error != "" || rr.TimeNS <= 0 {
		t.Fatalf("post-cancel /run outcome: %+v", rr.OutcomeJSON)
	}
}

// TestServeFleetDeterministic: /fleet rows carry archetype/scenario/seed
// annotations, arrive in deterministic order, and repeat byte-identically
// for the same request.
func TestServeFleetDeterministic(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 2})
	freq := serve.FleetRequest{
		Platform:   serve.PlatformSpec{Name: "a", NVMLatencyFactor: 4},
		Archetype:  "stable",
		Count:      2,
		Seed:       7,
		Strategies: []string{"slowest-only", "unimem"},
	}
	fetch := func() []serve.OutcomeJSON {
		body, _ := json.Marshal(freq)
		resp, err := http.Post(ts.URL+"/fleet", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("/fleet status %d: %s", resp.StatusCode, msg)
		}
		var rows []serve.OutcomeJSON
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var row serve.OutcomeJSON
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := fetch()
	if len(first) != 4 { // 2 scenarios x 2 strategies
		t.Fatalf("fleet produced %d rows, want 4", len(first))
	}
	for i, row := range first {
		if row.Index != i {
			t.Fatalf("row %d carries index %d", i, row.Index)
		}
		if row.Archetype != "stable" || row.Scenario == "" || row.Seed == 0 {
			t.Fatalf("row %d missing fleet annotations: %+v", i, row)
		}
		if row.Error != "" {
			t.Fatalf("row %d: %s", i, row.Error)
		}
	}
	second := fetch()
	// The repeat fetch is served from the run cache, so its rows carry
	// cache_hit=true — the only field allowed to differ.
	norm := func(rows []serve.OutcomeJSON) []serve.OutcomeJSON {
		out := append([]serve.OutcomeJSON(nil), rows...)
		for i := range out {
			out[i].CacheHit = false
		}
		return out
	}
	if !reflect.DeepEqual(norm(first), norm(second)) {
		t.Error("repeated /fleet request produced different rows; fleet generation is not deterministic")
	}
}

// TestServeRestartWarmStart is the tentpole's restart contract: a new
// server over the same cache directory answers a previously-served
// request as a cache hit — same result, zero fresh executions.
func TestServeRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Quick: true, CacheDir: dir}

	srv1, ts1 := newTestServer(t, cfg)
	var cold serve.RunResponse
	if resp := postJSON(t, ts1.URL+"/run", cgRun("xmem"), &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run status %d", resp.StatusCode)
	}
	if cold.Error != "" || cold.TimeNS <= 0 {
		t.Fatalf("cold run outcome: %+v", cold.OutcomeJSON)
	}
	if st := getStats(t, ts1.URL); st.Cache.Misses == 0 {
		t.Fatal("cold run executed nothing?")
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("saving snapshot: %v", err)
	}
	ts1.Close()

	srv2, ts2 := newTestServer(t, cfg)
	if srv2.LoadedEntries() == 0 {
		t.Fatal("restarted server loaded no snapshot entries")
	}
	st := getStats(t, ts2.URL)
	if st.Snapshot == nil || st.Snapshot.LoadedEntries == 0 {
		t.Fatalf("/stats does not report the warm start: %+v", st.Snapshot)
	}
	if !strings.HasPrefix(st.Snapshot.Path, dir) {
		t.Errorf("snapshot path %q not under cache dir %q", st.Snapshot.Path, dir)
	}

	var warm serve.RunResponse
	if resp := postJSON(t, ts2.URL+"/run", cgRun("xmem"), &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run status %d", resp.StatusCode)
	}
	if warm.TimeNS != cold.TimeNS {
		t.Errorf("warm result %d ns differs from cold %d ns", warm.TimeNS, cold.TimeNS)
	}
	after := getStats(t, ts2.URL)
	if after.Cache.Misses != 0 {
		t.Errorf("restarted server executed %d fresh runs for a persisted request, want 0", after.Cache.Misses)
	}
	if after.Cache.Hits < 1 {
		t.Errorf("restarted server recorded %d hits, want >= 1", after.Cache.Hits)
	}
}

// TestServeBadRequests: every malformed request is a 400 (or 405) with a
// JSON error naming the problem — the server never panics and never runs.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	cases := []struct {
		name, path, body, wantInError string
	}{
		{"unknown platform", "/run", `{"platform":"pdp11","workload":{"npb":{"name":"CG"}},"strategy":"xmem"}`, "unknown name"},
		{"unknown kernel", "/run", `{"platform":"a","workload":{"npb":{"name":"ZZ"}},"strategy":"xmem"}`, "unknown kernel"},
		{"unknown strategy", "/run", `{"platform":"a","workload":{"npb":{"name":"CG"}},"strategy":"warp"}`, "unknown strategy"},
		{"no workload form", "/run", `{"platform":"a","workload":{},"strategy":"xmem"}`, "exactly one"},
		{"unknown field", "/run", `{"platform":"a","workloda":{}}`, "unknown field"},
		{"unknown platform field", "/run", `{"platform":{"name":"a","nvm_latency":4},"workload":{"npb":{"name":"CG"}},"strategy":"xmem"}`, "unknown field"},
		{"bad scenario", "/run", `{"platform":"a","workload":{"scenario":{"name":""}},"strategy":"xmem"}`, "name"},
		{"empty batch", "/batch", `{"platform":"a","jobs":[]}`, "empty"},
		{"bad batch job", "/batch", `{"platform":"a","jobs":[{"workload":{"npb":{"name":"CG"}},"strategy":"nope"}]}`, "jobs[0]"},
		{"bad archetype", "/fleet", `{"archetype":"weird"}`, "unknown"},
		{"oversized fleet", "/fleet", `{"count":1000}`, "limit"},
		{"negative ranks", "/run", `{"platform":"a","workload":{"npb":{"name":"CG"}},"strategy":"xmem","ranks":-1}`, "(got -1)"},
		{"oversized ranks", "/run", `{"platform":"a","workload":{"npb":{"name":"CG"}},"strategy":"xmem","ranks":100000}`, "rank limit"},
		{"oversized npb ranks", "/run", `{"platform":"a","workload":{"npb":{"name":"CG","ranks":100000}},"strategy":"xmem"}`, "rank limit"},
		{"oversized fleet strategies", "/fleet", `{"strategies":["xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem","xmem"]}`, "strategy limit"},
	}
	for _, tc := range cases {
		status, msg := post(tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, msg)
		}
		if !strings.Contains(msg, tc.wantInError) {
			t.Errorf("%s: error %q does not name the problem (want %q)", tc.name, msg, tc.wantInError)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status %d, want 405", resp.StatusCode)
	}
}
