package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"unimem"
)

// stubNode is a minimal /run endpoint: it answers like unimem-serve (a
// cache_hit JSON field) and reports a hit for any body it has seen
// before, so repeat traffic measures as hits.
type stubNode struct {
	mu   sync.Mutex
	seen map[string]bool
	reqs int
	fail func(i int) int // optional: status for request i (0: 200)
}

func (s *stubNode) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		key := string(b)
		s.mu.Lock()
		i := s.reqs
		s.reqs++
		hit := s.seen[key]
		s.seen[key] = true
		s.mu.Unlock()
		if s.fail != nil {
			if code := s.fail(i); code != 0 {
				w.WriteHeader(code)
				fmt.Fprintf(w, `{"error":"injected"}`)
				return
			}
		}
		fmt.Fprintf(w, `{"cache_hit":%v,"time_ns":1}`, hit)
	})
}

func newStub(t *testing.T) (*stubNode, *httptest.Server) {
	t.Helper()
	s := &stubNode{seen: map[string]bool{}}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestBodiesDeterministic(t *testing.T) {
	cfg := Config{Scenarios: 2, Seed: 7}
	a, err := Bodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different body populations")
	}
	if want := 2 * len(unimem.ScenarioArchetypes()); len(a) != want {
		t.Fatalf("got %d bodies, want %d (2 per archetype)", len(a), want)
	}
}

func TestBodiesArchetypeFilter(t *testing.T) {
	one, err := Bodies(Config{Archetype: "stable", Scenarios: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 3 {
		t.Fatalf("single-archetype population has %d bodies, want 3", len(one))
	}
	if _, err := Bodies(Config{Archetype: "no-such-archetype"}); err == nil {
		t.Fatal("unknown archetype accepted")
	}
}

func TestRunCountsHits(t *testing.T) {
	s, ts := newStub(t)
	rep, err := Run(context.Background(), Config{
		Target:    ts.URL + "/",
		QPS:       5000,
		Requests:  40,
		Workers:   8,
		Archetype: "stable",
		Scenarios: 2, // 2 bodies cycled over 40 requests: plenty of repeats
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 40/0", rep.Requests, rep.Errors)
	}
	// Each of the 2 bodies misses once; every repeat is a hit.
	if rep.Hits != 38 || rep.HitRate != 38.0/40 {
		t.Fatalf("hits=%d hit_rate=%g, want 38 and 0.95", rep.Hits, rep.HitRate)
	}
	if s.reqs != 40 {
		t.Fatalf("stub saw %d requests, want 40", s.reqs)
	}
	if rep.Target != ts.URL {
		t.Fatalf("report target %q, want %q (trailing slash trimmed)", rep.Target, ts.URL)
	}
	if rep.P50US > rep.P99US || rep.P99US > rep.P999US || rep.P999US > rep.MaxUS {
		t.Fatalf("quantiles out of order: p50=%.0f p99=%.0f p999=%.0f max=%.0f",
			rep.P50US, rep.P99US, rep.P999US, rep.MaxUS)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS %.1f", rep.AchievedQPS)
	}
}

func TestRunCountsErrors(t *testing.T) {
	s, ts := newStub(t)
	s.fail = func(i int) int {
		if i%2 == 1 {
			return http.StatusInternalServerError
		}
		return 0
	}
	rep, err := Run(context.Background(), Config{
		Target:    ts.URL,
		QPS:       5000,
		Requests:  10,
		Archetype: "stable",
		Scenarios: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 5 {
		t.Fatalf("errors=%d, want 5 (every other request 500s)", rep.Errors)
	}
	if rep.Requests != 10 {
		t.Fatalf("requests=%d, want 10 (errors still count as sent)", rep.Requests)
	}
}

func TestRunOpenLoopPacing(t *testing.T) {
	_, ts := newStub(t)
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Target:    ts.URL,
		QPS:       100, // 10 requests at 100 QPS: the schedule spans 90ms
		Requests:  10,
		Workers:   4,
		Archetype: "stable",
		Scenarios: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("open-loop schedule finished in %v; pacing not honored", elapsed)
	}
	if rep.AchievedQPS > 130 {
		t.Fatalf("achieved %.1f QPS against a 100 QPS schedule", rep.AchievedQPS)
	}
}

func TestRunCancellation(t *testing.T) {
	_, ts := newStub(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, Config{
		Target:    ts.URL,
		QPS:       10, // 100 requests at 10 QPS would take ~10s; cancel cuts it short
		Requests:  100,
		Archetype: "stable",
		Scenarios: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests >= 100 {
		t.Fatalf("cancellation did not stop scheduling: %d requests", rep.Requests)
	}
}

func TestRunConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{QPS: 1, Requests: 1}); err == nil {
		t.Fatal("no target accepted")
	}
	if _, err := Run(ctx, Config{Target: "http://x", Requests: 1}); err == nil {
		t.Fatal("zero QPS accepted")
	}
	if _, err := Run(ctx, Config{Target: "http://x", QPS: 1}); err == nil {
		t.Fatal("neither Requests nor Duration accepted")
	}
}
