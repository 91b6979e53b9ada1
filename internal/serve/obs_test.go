package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"unimem/internal/obs"
	"unimem/internal/serve"
)

// scrapeErr fetches /metrics and validates the whole exposition line by
// line. Safe to call from any goroutine.
func scrapeErr(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		return "", fmt.Errorf("invalid exposition: %v\n%s", err, body)
	}
	return string(body), nil
}

// scrape is scrapeErr for the test goroutine.
func scrape(t *testing.T, base string) string {
	t.Helper()
	body, err := scrapeErr(base)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// histRequestCount sums the request-latency histogram's _count samples
// across every label combination — the number of instrumented requests
// the server has completed.
func histRequestCount(t *testing.T, exposition string) int64 {
	t.Helper()
	var total int64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, "unimem_http_request_duration_seconds_count") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		total += int64(v)
	}
	return total
}

// TestMetricsConcurrentBatchScrape hammers /batch from several clients
// while a scraper validates /metrics continuously; afterwards the
// latency histogram must have counted exactly the completed requests.
// Run under -race this also exercises the registry's concurrency.
func TestMetricsConcurrentBatchScrape(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 2})

	// Seed the run cache so the storm below is fast.
	if resp := postJSON(t, ts.URL+"/run", cgRun("xmem"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	batch := serve.BatchRequest{
		Platform: cgRun("xmem").Platform,
		Jobs:     []serve.JobReq{cgRun("xmem").JobReq, cgRun("slowest-only").JobReq},
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	const clients, batches = 6, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch status %d: %s", resp.StatusCode, out)
					return
				}
			}
		}()
	}

	// Scrape-and-validate continuously until the clients finish.
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	scrapes := 0
scrapeLoop:
	for {
		if _, err := scrapeErr(ts.URL); err != nil {
			errs <- err
			break
		}
		scrapes++
		select {
		case <-stop:
			break scrapeLoop
		default:
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if scrapes == 0 {
		t.Fatal("scraper never ran")
	}

	exposition := scrape(t, ts.URL)
	want := int64(1 + clients*batches) // seed /run + every /batch
	if got := histRequestCount(t, exposition); got != want {
		t.Fatalf("histogram counted %d requests, want %d\n%s", got, want, exposition)
	}
}

// TestRequestIDOnError asserts a failing request carries the same
// request ID in the X-Request-Id header and the error body.
func TestRequestIDOnError(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("missing X-Request-Id header")
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != id {
		t.Fatalf("body request_id %q != header %q", body.RequestID, id)
	}
	if body.Error == "" {
		t.Fatal("empty error message")
	}
}

// TestStatsUptimeVersionHealthz asserts /stats reports uptime and build
// identity, and /healthz echoes the same version.
func TestStatsUptimeVersionHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	st := getStats(t, ts.URL)
	if st.Uptime < 0 {
		t.Fatalf("negative uptime %v", st.Uptime)
	}
	if st.Build == nil || st.Build.Version == "" || st.Build.Go == "" {
		t.Fatalf("missing build identity: %+v", st.Build)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK      bool   `json:"ok"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Version != st.Build.Version {
		t.Fatalf("healthz %+v, want ok with version %q", hz, st.Build.Version)
	}
}

// TestRunTraceResponse asserts /run?trace=1 returns a loadable Chrome
// trace document with virtual-clock spans from inside the runtime.
func TestRunTraceResponse(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})
	var out serve.RunResponse
	req := cgRun("unimem")
	if resp := postJSON(t, ts.URL+"/run?trace=1", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Trace) == 0 {
		t.Fatal("no trace in response")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Trace, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	var virtualSpans, phases int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == 1 {
			virtualSpans++
		}
		if e.Cat == "phase" {
			phases++
		}
	}
	if virtualSpans == 0 || phases == 0 {
		t.Fatalf("trace has %d virtual spans, %d phase spans (want both > 0); %d events",
			virtualSpans, phases, len(doc.TraceEvents))
	}

	// The same request without ?trace=1 must not carry a trace.
	var plain serve.RunResponse
	if resp := postJSON(t, ts.URL+"/run", req, &plain); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain status %d", resp.StatusCode)
	}
	if len(plain.Trace) != 0 {
		t.Fatal("trace present without ?trace=1")
	}
}

// TestMetricsDisabled asserts DisableMetrics removes /metrics while
// leaving the request path (and request IDs) intact.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true, DisableMetrics: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics status %d with metrics disabled, want 404", resp.StatusCode)
	}
	var out serve.RunResponse
	r := postJSON(t, ts.URL+"/run", cgRun("xmem"), &out)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/run status %d", r.StatusCode)
	}
	if r.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id with metrics disabled")
	}
}
