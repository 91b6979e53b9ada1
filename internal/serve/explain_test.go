package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"unimem"
	"unimem/internal/serve"
)

// TestRunExplainResponse asserts /run?explain=1 returns an attribution
// document whose run_id matches the response's X-Request-Id, with
// decisions, migrations and a regret figure for a Unimem run — and that
// the same request without the flag carries none.
func TestRunExplainResponse(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	req := cgRun("unimem")

	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run?explain=1", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id header")
	}
	var out serve.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Explain) == 0 {
		t.Fatal("no explain document in response")
	}
	var doc unimem.ExplainDoc
	if err := json.Unmarshal(out.Explain, &doc); err != nil {
		t.Fatalf("explain does not parse: %v", err)
	}
	if doc.RunID != reqID {
		t.Errorf("explain run_id = %q, want the request ID %q", doc.RunID, reqID)
	}
	if len(doc.Decisions) == 0 {
		t.Error("explain document has no decisions")
	}
	if len(doc.Migrations) == 0 {
		t.Error("explain document has no migrations")
	}
	if doc.Regret == nil {
		t.Error("explain document has no regret record")
	}

	// Without the flag: no document.
	var plain serve.RunResponse
	if r := postJSON(t, ts.URL+"/run", req, &plain); r.StatusCode != http.StatusOK {
		t.Fatalf("plain status %d", r.StatusCode)
	}
	if len(plain.Explain) != 0 {
		t.Errorf("unexplained run carries an explain document (%d bytes)", len(plain.Explain))
	}
}

// TestDebugRuns asserts the /debug/runs ring records executed requests
// newest-first with request IDs and run metadata, and is absent (like
// /metrics) when metrics are disabled.
func TestDebugRuns(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, DebugRunHistory: 8})

	var first serve.RunResponse
	if r := postJSON(t, ts.URL+"/run", cgRun("xmem"), &first); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	var second serve.RunResponse
	if r := postJSON(t, ts.URL+"/run?explain=1", cgRun("unimem"), &second); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/runs status %d", resp.StatusCode)
	}
	var page struct {
		Capacity int `json:"capacity"`
		Total    int64
		Runs     []struct {
			RequestID  string   `json:"request_id"`
			Endpoint   string   `json:"endpoint"`
			At         string   `json:"at"`
			DurationMS float64  `json:"duration_ms"`
			Status     int      `json:"status"`
			Cache      string   `json:"cache"`
			Workload   string   `json:"workload"`
			Strategy   string   `json:"strategy"`
			TimeNS     int64    `json:"time_ns"`
			RegretFrac *float64 `json:"regret_frac"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Capacity != 8 {
		t.Errorf("capacity = %d, want 8", page.Capacity)
	}
	if len(page.Runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(page.Runs))
	}
	// Newest first: the explained unimem run leads.
	newest, oldest := page.Runs[0], page.Runs[1]
	if newest.Strategy != "unimem" || oldest.Strategy != "xmem" {
		t.Errorf("order = [%s, %s], want [unimem, xmem]", newest.Strategy, oldest.Strategy)
	}
	if newest.Workload != "CG" || newest.TimeNS <= 0 || newest.Status != http.StatusOK {
		t.Errorf("newest record incomplete: %+v", newest)
	}
	if newest.RequestID == "" {
		t.Error("newest record has no request ID")
	}
	if newest.RegretFrac == nil {
		t.Error("explained run recorded no regret_frac")
	}
	if oldest.RegretFrac != nil {
		t.Error("unexplained run recorded a regret_frac")
	}
	if oldest.Cache != "miss" {
		t.Errorf("cold xmem run cache = %q, want miss", oldest.Cache)
	}
	if _, err := time.Parse(time.RFC3339Nano, newest.At); err != nil {
		t.Errorf("at %q is not RFC 3339: %v", newest.At, err)
	}

	// Disabled metrics: the route must not exist.
	_, tsOff := newTestServer(t, serve.Config{Quick: true, DisableMetrics: true})
	off, err := http.Get(tsOff.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/runs with -no-metrics: status %d, want 404", off.StatusCode)
	}
}

// TestSlowRequestCounter asserts requests over the -slow-request
// threshold increment the per-endpoint counter.
func TestSlowRequestCounter(t *testing.T) {
	// A 1ns threshold makes every request slow.
	_, ts := newTestServer(t, serve.Config{Quick: true, SlowRequest: time.Nanosecond})
	var out serve.RunResponse
	if r := postJSON(t, ts.URL+"/run", cgRun("xmem"), &out); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	exposition := scrape(t, ts.URL)
	if !strings.Contains(exposition, `unimem_serve_slow_requests_total{endpoint="/run"} 1`) {
		t.Errorf("slow-request counter missing from exposition:\n%s",
			grepLines(exposition, "slow"))
	}
}

// TestFleetRegretTelemetry asserts a /fleet sweep under the Unimem
// strategy populates the per-archetype regret gauge and the migration
// benefit histogram.
func TestFleetRegretTelemetry(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 2})
	body := map[string]any{
		"platform":   map[string]any{"name": "a", "nvm_latency_factor": 4},
		"archetype":  "pattern-drift",
		"count":      1,
		"ranks":      2,
		"strategies": []string{"unimem"},
	}
	resp := postJSON(t, ts.URL+"/fleet", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet status %d", resp.StatusCode)
	}
	exposition := scrape(t, ts.URL)
	if !strings.Contains(exposition, `unimem_fleet_regret{archetype="pattern-drift"}`) {
		t.Errorf("fleet regret gauge missing:\n%s", grepLines(exposition, "fleet"))
	}
	if !strings.Contains(exposition, `unimem_fleet_regret_frac_count{archetype="pattern-drift"} 1`) {
		t.Errorf("fleet regret histogram missing:\n%s", grepLines(exposition, "fleet"))
	}
	if !strings.Contains(exposition, `unimem_fleet_migration_benefit_ratio_count{archetype="pattern-drift"}`) {
		t.Errorf("migration benefit histogram missing:\n%s", grepLines(exposition, "fleet"))
	}
}

// TestMetricsHEAD asserts the daemon's /metrics answers HEAD with a
// Content-Length and no body. Uptime and request counters move between
// any two scrapes, so each response is checked on its own: the GET's
// Content-Length matches its own body, and the HEAD carries a positive
// length and an empty body.
func TestMetricsHEAD(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	get, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if got := get.ContentLength; got != int64(len(body)) {
		t.Errorf("GET Content-Length = %d, body = %d bytes", got, len(body))
	}

	head, err := http.Head(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	headBody, _ := io.ReadAll(head.Body)
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /metrics status %d", head.StatusCode)
	}
	if head.ContentLength <= 0 {
		t.Errorf("HEAD Content-Length = %d, want > 0", head.ContentLength)
	}
	if len(headBody) != 0 {
		t.Errorf("HEAD returned a %d-byte body", len(headBody))
	}
}

// grepLines filters an exposition to lines containing needle, for
// readable failure messages.
func grepLines(s, needle string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
