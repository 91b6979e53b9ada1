package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"unimem/internal/serve"
)

// seededRun is cgRun with a per-request seed, so each seed is a distinct
// run key.
func seededRun(strategy string, seed uint64) serve.RunRequest {
	req := cgRun(strategy)
	req.Seed = seed
	return req
}

// TestSnapshotExchangeOverHTTP: GET /snapshot from a warm node, POST it
// to a cold node's /snapshot/merge, and the repeat request is a hit with
// zero fresh executions on the cold node.
func TestSnapshotExchangeOverHTTP(t *testing.T) {
	_, tsA := newTestServer(t, serve.Config{Quick: true, Workers: 2})
	_, tsB := newTestServer(t, serve.Config{Quick: true, Workers: 2})

	var warm serve.RunResponse
	if resp := postJSON(t, tsA.URL+"/run", cgRun("xmem"), &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run status %d", resp.StatusCode)
	}
	if warm.Error != "" || warm.CacheHit {
		t.Fatalf("warm run = %+v", warm.OutcomeJSON)
	}

	snapResp, err := http.Get(tsA.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if err != nil || snapResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot: status %d err %v", snapResp.StatusCode, err)
	}

	mergeResp, err := http.Post(tsB.URL+"/snapshot/merge", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var mr serve.MergeResponse
	if err := json.NewDecoder(mergeResp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	mergeResp.Body.Close()
	if mergeResp.StatusCode != http.StatusOK || mr.Added < 1 {
		t.Fatalf("merge: status %d %+v", mergeResp.StatusCode, mr)
	}

	var cold serve.RunResponse
	if resp := postJSON(t, tsB.URL+"/run", cgRun("xmem"), &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-merge run status %d", resp.StatusCode)
	}
	if !cold.CacheHit || cold.Error != "" {
		t.Fatalf("post-merge run not a hit: %+v", cold.OutcomeJSON)
	}
	if cold.TimeNS != warm.TimeNS {
		t.Fatalf("merged result diverges: %d vs %d", cold.TimeNS, warm.TimeNS)
	}
	st := getStats(t, tsB.URL)
	if st.Cache.Misses != 0 {
		t.Fatalf("cold node executed %d fresh runs, want 0", st.Cache.Misses)
	}
	if st.Merge == nil || st.Merge.Merges != 1 || st.Merge.TotalAdded != mr.Added || st.Merge.LastUnixNS == 0 {
		t.Fatalf("/stats merge block = %+v", st.Merge)
	}
}

// TestSnapshotMergeRejects: version-mismatched and corrupt payloads are
// 400s that leave the local cache untouched.
func TestSnapshotMergeRejects(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Quick: true})

	var seedRun serve.RunResponse
	if resp := postJSON(t, ts.URL+"/run", cgRun("xmem"), &seedRun); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run status %d", resp.StatusCode)
	}
	before := getStats(t, ts.URL).Cache

	for _, tc := range []struct{ name, payload, wantErr string }{
		{"version", `{"version":99,"entries":[]}`, "version"},
		{"corrupt", `{"version":1,"entries":[{"key":`, "decoding"},
		{"garbage", `not a snapshot`, "decoding"},
	} {
		resp, err := http.Post(ts.URL+"/snapshot/merge", "application/json", strings.NewReader(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantErr)
		}
	}
	if after := getStats(t, ts.URL).Cache; !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected merges changed the cache: %+v -> %+v", before, after)
	}
	// The seeded entry still answers as a hit.
	var again serve.RunResponse
	postJSON(t, ts.URL+"/run", cgRun("xmem"), &again)
	if !again.CacheHit {
		t.Fatal("resident entry lost after rejected merges")
	}
}

// TestMergeWhileServing races /run traffic against /snapshot/merge posts
// through the full HTTP stack under -race.
func TestMergeWhileServing(t *testing.T) {
	_, warmTS := newTestServer(t, serve.Config{Quick: true, Workers: 2})
	for seed := uint64(1); seed <= 4; seed++ {
		var rr serve.RunResponse
		if resp := postJSON(t, warmTS.URL+"/run", seededRun("xmem", seed), &rr); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm seed %d: status %d", seed, resp.StatusCode)
		}
	}
	snapResp, err := http.Get(warmTS.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()

	_, ts := newTestServer(t, serve.Config{Quick: true, Workers: 2})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := uint64(1); seed <= 4; seed++ {
				data, _ := json.Marshal(seededRun("xmem", seed))
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(data))
				if err != nil {
					panic(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					panic(fmt.Sprintf("run status %d", resp.StatusCode))
				}
			}
		}(w)
	}
	for m := 0; m < 3; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/snapshot/merge", "application/json", bytes.NewReader(snap))
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("merge status %d", resp.StatusCode))
			}
		}()
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.Cache.Entries == 0 {
		t.Fatal("no entries after racing merges and runs")
	}
}

// TestReadyzLifecycle: /readyz is the readiness probe — 200 when
// serving, 503 with a reason while draining — and /healthz stays a pure
// liveness probe throughout.
func TestReadyzLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Quick: true})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("fresh /readyz = %d %q", code, body)
	}
	srv.SetDraining(true)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, liveness must be unaffected", code)
	}
	srv.SetDraining(false)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("undrained /readyz = %d", code)
	}
}
