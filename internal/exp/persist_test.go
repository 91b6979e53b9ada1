package exp

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// snapKey builds a distinct key for persistence tests.
func snapKey(i int) RunKey {
	return RunKey{Workload: "W|C|4|12", Machine: "m", Strategy: "static:x", Seed: uint64(i), Ranks: 4}
}

// snapResult builds a result with enough structure to catch lossy
// round-trips (nested slices, floats).
func snapResult(i int) *app.Result {
	return &app.Result{
		Workload: "W",
		Manager:  "static",
		TimeNS:   int64(1000 + i),
		PhaseNS:  []float64{1.5, 2.25},
		Ranks: []app.RankResult{
			{Rank: 0, TimeNS: int64(100 + i), CommNS: 7},
			{Rank: 1, TimeNS: int64(200 + i)},
		},
	}
}

// TestSnapshotRoundTrip: save a populated cache, load into a fresh one,
// and assert the loaded entries hit without executing, with results
// structurally equal to the originals.
func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache", "runcache.json")
	c := NewRunCache()
	const n = 5
	want := make([]*app.Result, n)
	for i := 0; i < n; i++ {
		want[i] = snapResult(i)
		res := want[i]
		if _, err := c.Do(context.Background(), snapKey(i), func() (*app.Result, error) { return res, nil }); err != nil {
			t.Fatal(err)
		}
	}
	saved, err := c.SaveSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != n {
		t.Fatalf("saved %d entries, want %d", saved, n)
	}

	warm := NewRunCache()
	loaded, err := warm.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d entries, want %d", loaded, n)
	}
	if st := warm.Stats(); st.Loaded != n || st.Misses != 0 {
		t.Fatalf("stats after load = %+v, want Loaded=%d Misses=0", st, n)
	}
	var calls atomic.Int64
	for i := 0; i < n; i++ {
		got, err := warm.Do(context.Background(), snapKey(i), func() (*app.Result, error) {
			calls.Add(1)
			return nil, errors.New("should not execute")
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("entry %d round-tripped lossily:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if calls.Load() != 0 {
		t.Errorf("warm cache executed %d runs, want 0 (all hits)", calls.Load())
	}
	if st := warm.Stats(); st.Hits != n {
		t.Errorf("warm cache hits = %d, want %d", st.Hits, n)
	}
}

// TestSnapshotSkipsErrors: cached errors are process-local (a failing
// baseline may be transient across restarts) and must not persist.
func TestSnapshotSkipsErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runcache.json")
	c := NewRunCache()
	if _, err := c.Do(context.Background(), snapKey(0), func() (*app.Result, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("expected cached error")
	}
	if _, err := c.Do(context.Background(), snapKey(1), func() (*app.Result, error) {
		return snapResult(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	saved, err := c.SaveSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != 1 {
		t.Fatalf("saved %d entries, want 1 (error entry skipped)", saved)
	}
}

// TestSnapshotMissingFileIsColdStart: loading a nonexistent path is a
// clean cold start, not an error.
func TestSnapshotMissingFileIsColdStart(t *testing.T) {
	c := NewRunCache()
	n, err := c.LoadSnapshot(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || n != 0 {
		t.Fatalf("LoadSnapshot(missing) = %d, %v; want 0, nil", n, err)
	}
}

// TestSnapshotVersionGuard: an envelope with a different version is
// rejected with ErrSnapshotVersion and loads nothing.
func TestSnapshotVersionGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runcache.json")
	data, _ := json.Marshal(map[string]any{
		"version": SnapshotVersion + 1,
		"entries": []any{map[string]any{"key": snapKey(0), "result": snapResult(0)}},
	})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewRunCache()
	n, err := c.LoadSnapshot(path)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
	if n != 0 || c.Stats().Loaded != 0 {
		t.Error("version-mismatched snapshot leaked entries into the cache")
	}
}

// TestSnapshotCorruptFile: a truncated file is a decode error, not a
// partial load.
func TestSnapshotCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runcache.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"entries":[{`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewRunCache()
	if _, err := c.LoadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	if c.Stats().Loaded != 0 {
		t.Error("corrupt snapshot leaked entries into the cache")
	}
}

// TestSnapshotAtomicOverwrite: saving over an existing snapshot leaves no
// temp droppings and the new content wins.
func TestSnapshotAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runcache.json")
	c := NewRunCache()
	if _, err := c.Do(context.Background(), snapKey(0), func() (*app.Result, error) { return snapResult(0), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(context.Background(), snapKey(1), func() (*app.Result, error) { return snapResult(1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "runcache.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("snapshot dir holds %v, want only runcache.json", names)
	}
	warm := NewRunCache()
	if n, err := warm.LoadSnapshot(path); err != nil || n != 2 {
		t.Fatalf("reloaded %d entries (%v), want 2", n, err)
	}
}

// TestSnapshotLoadRespectsBudget: loading an over-budget snapshot keeps
// the most recently used entries and evicts the rest.
func TestSnapshotLoadRespectsBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runcache.json")
	big := NewRunCache()
	for i := 0; i < 64; i++ {
		res := snapResult(i)
		if _, err := big.Do(context.Background(), snapKey(i), func() (*app.Result, error) { return res, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := big.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	small := NewRunCacheBounded(16, 0)
	if _, err := small.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	st := small.Stats()
	if st.Entries > 16 {
		t.Errorf("bounded cache holds %d entries after load, want <= 16", st.Entries)
	}
	if st.Loaded != 64 {
		t.Errorf("loaded counter = %d, want 64 (all seeded, some evicted)", st.Loaded)
	}
	if st.Evictions == 0 {
		t.Error("over-budget load evicted nothing")
	}
}

// TestSnapshotLoadsKeysOfOlderSchema: snapshots written before RunKey
// dropped its materialization-cap field carry it as 0 in every entry key.
// Such a document must still load — from disk and over the merge path —
// under the key the engine derives today, so the same run is served as a
// cache hit.
func TestSnapshotLoadsKeysOfOlderSchema(t *testing.T) {
	w := workloads.NewCG("A", 2)
	m := machine.PlatformA()
	st := StrategySlowestOnly()
	opts := app.Options{Ranks: 2, Seed: 1}
	key := keyFor(w, m, st.cacheKey(), opts)
	str := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	doc := `{"version":1,"entries":[{"key":{"Workload":` + str(key.Workload) +
		`,"Spec":"","Machine":` + str(key.Machine) +
		`,"Strategy":"static:nvm-only","Ranks":2,"RPN":0,"Seed":1,"MatCap":0,"Chunk":0},` +
		`"result":{"Workload":"CG","Manager":"nvm-only","TimeNS":4242},"completed_at_ns":1}]}`

	loaded := NewRunCache()
	path := filepath.Join(t.TempDir(), "runcache.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := loaded.LoadSnapshot(path); err != nil || n != 1 {
		t.Fatalf("LoadSnapshot = %d, %v; want 1 entry", n, err)
	}
	merged := NewRunCache()
	if ms, err := merged.MergeSnapshot([]byte(doc)); err != nil || ms.Added != 1 {
		t.Fatalf("MergeSnapshot = %+v, %v; want Added 1", ms, err)
	}

	for name, c := range map[string]*RunCache{"load": loaded, "merge": merged} {
		res, _, info, err := NewEngine(false, c).ExecuteInfo(context.Background(), w, m, st, core.DefaultConfig(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !info.CacheHit || res.TimeNS != 4242 {
			t.Fatalf("%s: hit=%v time=%d; want the snapshot entry served as a hit", name, info.CacheHit, res.TimeNS)
		}
		if cs := c.Stats(); cs.Hits != 1 || cs.Misses != 0 {
			t.Fatalf("%s: cache stats %+v, want 1 hit and no miss", name, cs)
		}
	}
}
