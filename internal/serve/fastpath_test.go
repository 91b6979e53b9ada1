package serve_test

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"unimem/internal/serve"
)

// TestStatsAndMetricsFastPath asserts the daemon surfaces the analytic
// fast path's counters on both observability endpoints: /stats carries
// the fastpath block, and /metrics renders every unimem_fastpath_*
// family (the scrape helper validates the whole exposition, including
// the labeled per-mode iteration counters).
func TestStatsAndMetricsFastPath(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})

	// A Unimem run executes fresh (never cached), so the process-wide
	// fast-path totals must move.
	if resp := postJSON(t, ts.URL+"/run", cgRun("unimem"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	st := getStats(t, ts.URL)
	fp := st.FastPath
	if fp.SimulatedIters == 0 {
		t.Fatalf("/stats fastpath saw no simulated iterations: %+v", fp)
	}
	if fp.AnalyticIters == 0 || fp.FastForwards == 0 {
		t.Fatalf("fast path never engaged on the quick CG run: %+v", fp)
	}

	exposition := scrape(t, ts.URL) // validates the full exposition
	for _, want := range []string{
		"unimem_fastpath_ff_total",
		`unimem_fastpath_iters_total{mode="analytic"}`,
		`unimem_fastpath_iters_total{mode="simulated"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The scrape-time bridges read the same totals /stats reported; the
	// counters are monotonic, so the later scrape is at least as large.
	if v := metricValue(t, exposition, `unimem_fastpath_iters_total{mode="analytic"}`); v < float64(fp.AnalyticIters) {
		t.Errorf("metric analytic iters %v < /stats %d", v, fp.AnalyticIters)
	}
	if v := metricValue(t, exposition, "unimem_fastpath_ff_total"); v < float64(fp.FastForwards) {
		t.Errorf("metric fast-forwards %v < /stats %d", v, fp.FastForwards)
	}
}

// metricValue extracts one sample value from an exposition by exact
// series name (including labels).
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not in exposition", series)
	return 0
}
