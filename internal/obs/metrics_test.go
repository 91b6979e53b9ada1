package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeExposition renders the unlabeled forms: a vec with no
// label names exposes one bare sample, like the scrape-time functions.
func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_requests_total", "Total requests.").With()
	g := r.GaugeVec("test_inflight", "In-flight requests.").With()
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("test_scraped_total", "Scraped.", func() float64 { return 9 })
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters are monotonic
	g.Set(7)
	g.Set(5)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 4",
		"# TYPE test_inflight gauge",
		"test_inflight 5",
		"test_uptime_seconds 12.5",
		"# TYPE test_scraped_total counter",
		"test_scraped_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("self-exposition failed validation: %v", err)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_hits_total", "Hits by path.", "path", "code")
	v.With("/run", "200").Add(2)
	v.With("/batch", "500").Inc()
	v.With("/run", "200").Inc() // same child

	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	if !strings.Contains(out, `test_hits_total{path="/run",code="200"} 3`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `test_hits_total{path="/batch",code="500"} 1`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("validation: %v", err)
	}
}

// TestHistogramExpositionAndQuantiles pins the cumulative bucket counts
// that Prometheus's histogram_quantile reads, including le semantics: an
// observation exactly on a bound counts into that bound's bucket.
func TestHistogramExpositionAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 0.2, 0.5, 1}).With()
	// 100 observations uniformly in (0, 0.1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	h.Observe(0.2) // exactly on a bound: counts into le="0.2"
	h.Observe(5)   // beyond every finite bound: +Inf only
	if h.Count() != 102 {
		t.Fatalf("count = %d, want 102", h.Count())
	}
	if math.Abs(h.Sum()-10.25) > 1e-9 {
		t.Errorf("sum = %g, want 10.25", h.Sum())
	}

	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 100`,
		`test_latency_seconds_bucket{le="0.2"} 101`,
		`test_latency_seconds_bucket{le="1"} 101`,
		`test_latency_seconds_bucket{le="+Inf"} 102`,
		"test_latency_seconds_count 102",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("validation: %v", err)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_dur_seconds", "Durations.", []float64{0.5, 1}, "endpoint", "cache")
	v.With("/run", "hit").Observe(0.2)
	v.With("/run", "miss").Observe(0.9)
	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	if !strings.Contains(out, `test_dur_seconds_bucket{endpoint="/run",cache="hit",le="0.5"} 1`) {
		t.Errorf("missing hit bucket:\n%s", out)
	}
	if !strings.Contains(out, `test_dur_seconds_count{endpoint="/run",cache="miss"} 1`) {
		t.Errorf("missing miss count:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("validation: %v", err)
	}
}

// TestNilSafety is the disabled-mode contract: a nil registry hands out
// nil instruments and every operation on them is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	cv := r.CounterVec("xv_total", "x", "l")
	gv := r.GaugeVec("xv", "x", "l")
	hv := r.HistogramVec("xv_seconds", "x", nil, "l")
	r.GaugeFunc("x_fn", "x", func() float64 { return 1 })
	r.CounterFunc("x_cfn", "x", func() float64 { return 1 })
	r.CounterFuncVec("x_cfv_total", "x", "l").With(func() float64 { return 1 }, "a")

	c, g, h := cv.With("a"), gv.With("a"), hv.With("a")
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Errorf("nil registry WriteTo = (%d, %v), want (0, nil)", n, err)
	}
	if hv.Children() != nil {
		t.Error("nil vec Children must be nil")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_conc_seconds", "x", []float64{0.5}).With()
	c := r.CounterVec("test_conc_total", "x").With()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
				c.Inc()
			}
		}()
	}
	// Scrape concurrently with writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WriteTo(&b)
			if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
				t.Errorf("concurrent scrape invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Errorf("count = %d / %d, want 8000", h.Count(), c.Value())
	}
	if math.Abs(h.Sum()-2000) > 1e-6 {
		t.Errorf("sum = %g, want 2000", h.Sum())
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad metric name", func() { r.CounterVec("bad name", "x") })
	mustPanic("bad label name", func() { r.CounterVec("ok_total", "x", "bad-label") })
	r.CounterVec("dup_total", "x")
	mustPanic("duplicate name", func() { r.GaugeFunc("dup_total", "x", func() float64 { return 0 }) })
	v := r.CounterVec("lab_total", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestHandlerHEADAndContentLength(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_total", "A counter.").With().Inc()
	h := r.Handler()

	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := get.Body.String()
	if len(body) == 0 {
		t.Fatal("GET /metrics returned an empty body")
	}
	cl := get.Header().Get("Content-Length")
	if want := strconv.Itoa(len(body)); cl != want {
		t.Errorf("GET Content-Length = %q, want %q", cl, want)
	}

	head := httptest.NewRecorder()
	h.ServeHTTP(head, httptest.NewRequest(http.MethodHead, "/metrics", nil))
	if head.Body.Len() != 0 {
		t.Errorf("HEAD /metrics returned a %d-byte body, want none", head.Body.Len())
	}
	// HEAD must advertise the length a GET would have returned.
	if got := head.Header().Get("Content-Length"); got != cl {
		t.Errorf("HEAD Content-Length = %q, want the GET length %q", got, cl)
	}
	if got := head.Header().Get("Content-Type"); !strings.Contains(got, "text/plain") {
		t.Errorf("HEAD Content-Type = %q, want text/plain exposition", got)
	}
}

func TestGaugeVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("test_regret", "Regret by archetype.", "archetype")
	v.With("drift").Set(0.125)
	v.With("steady").Set(-0.5)
	v.With("drift").Set(0.25) // same child, latest value wins

	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_regret gauge",
		`test_regret{archetype="drift"} 0.25`,
		`test_regret{archetype="steady"} -0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("validation: %v", err)
	}

	// Nil safety mirrors the other instruments.
	var nilVec *GaugeVec
	nilVec.With("x").Set(1)
	var nilGauge *FloatGauge
	nilGauge.Set(2)
	if nilGauge.Value() != 0 {
		t.Error("nil FloatGauge.Value() != 0")
	}
	if (*Registry)(nil).GaugeVec("x", "y", "z") != nil {
		t.Error("nil registry returned a non-nil GaugeVec")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"no_value_here\n",
		"1leading_digit 3\n",
		`m{l=unquoted} 1` + "\n",
		`m{l="unterminated} 1` + "\n",
		`m{bad-label="v"} 1` + "\n",
		"m notafloat\n",
		"# TYPE m widget\nm 1\n",
		"# TYPE m counter\n# TYPE m counter\nm 1\n",
		"# TYPE known counter\nunknown_sample 1\n",
		`m{l="bad\q"} 1` + "\n",
	}
	for _, doc := range bad {
		if err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("expected rejection of %q", doc)
		}
	}
	good := []string{
		"",
		"# just a comment\n",
		"m 1\n",
		"m 1 1700000000000\n",
		`m{a="x",b="y\"z"} 2.5` + "\n",
		"m +Inf\nn NaN\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n",
	}
	for _, doc := range good {
		if err := ValidateExposition(strings.NewReader(doc)); err != nil {
			t.Errorf("unexpected rejection of %q: %v", doc, err)
		}
	}
}
