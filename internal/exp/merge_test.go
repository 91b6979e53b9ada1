package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"unimem/internal/app"
)

// mergeDoc marshals a snapshot document from explicit entries.
func mergeDoc(t *testing.T, version int, entries ...snapshotEntry) []byte {
	t.Helper()
	data, err := json.Marshal(&snapshotFile{Version: version, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMergeSnapshotVersionGuard: an incompatible envelope version merges
// nothing and reports ErrSnapshotVersion.
func TestMergeSnapshotVersionGuard(t *testing.T) {
	c := NewRunCache()
	doc := mergeDoc(t, SnapshotVersion+1,
		snapshotEntry{Key: snapKey(1), Result: snapResult(1), CompletedAtNS: 10})
	if _, err := c.MergeSnapshot(doc); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("MergeSnapshot(version %d) err = %v, want ErrSnapshotVersion",
			SnapshotVersion+1, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Loaded != 0 {
		t.Fatalf("version-mismatched merge touched the cache: %+v", st)
	}
}

// TestMergeSnapshotCorruptPayloadUntouched: a payload that fails to decode
// leaves the local cache exactly as it was — entry count, stats and the
// resident results themselves.
func TestMergeSnapshotCorruptPayloadUntouched(t *testing.T) {
	c := NewRunCache()
	want := snapResult(7)
	if _, err := c.Do(context.Background(), snapKey(7), func() (*app.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for _, payload := range [][]byte{
		[]byte("not json at all"),
		[]byte(`{"version":1,"entries":[{"key":`), // truncated mid-document
		[]byte(`{"version":1,"entries":"oops"}`),  // wrong entries shape
	} {
		if _, err := c.MergeSnapshot(payload); err == nil {
			t.Fatalf("MergeSnapshot(%q) succeeded, want decode error", payload)
		}
	}
	if after := c.Stats(); !reflect.DeepEqual(before, after) {
		t.Fatalf("corrupt merges changed stats: before %+v after %+v", before, after)
	}
	got, err := c.Do(context.Background(), snapKey(7), func() (*app.Result, error) {
		return nil, errors.New("should not execute")
	})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("resident entry disturbed by corrupt merge: %v %+v", err, got)
	}
}

// TestMergeSnapshotNewerCompletedWins: between two completed runs of the
// same key, the one with the strictly newer completion stamp survives,
// regardless of merge direction; an equal or older stamp is skipped.
func TestMergeSnapshotNewerCompletedWins(t *testing.T) {
	key := snapKey(3)
	older, newer := snapResult(1), snapResult(2)

	c := NewRunCache()
	if st, err := c.MergeSnapshot(mergeDoc(t, SnapshotVersion,
		snapshotEntry{Key: key, Result: older, CompletedAtNS: 100})); err != nil || st.Added != 1 {
		t.Fatalf("initial merge = %+v, %v", st, err)
	}

	// Newer incoming stamp replaces the resident entry.
	st, err := c.MergeSnapshot(mergeDoc(t, SnapshotVersion,
		snapshotEntry{Key: key, Result: newer, CompletedAtNS: 200}))
	if err != nil || st.Replaced != 1 || st.Added != 0 {
		t.Fatalf("newer merge = %+v, %v; want exactly one replacement", st, err)
	}
	got, _ := c.Do(context.Background(), key, func() (*app.Result, error) {
		return nil, errors.New("should not execute")
	})
	if !reflect.DeepEqual(got, newer) {
		t.Fatalf("after newer merge, entry = %+v, want the newer result", got)
	}

	// Equal and older stamps are skipped; the resident result survives.
	for _, stamp := range []int64{200, 150} {
		st, err := c.MergeSnapshot(mergeDoc(t, SnapshotVersion,
			snapshotEntry{Key: key, Result: older, CompletedAtNS: stamp}))
		if err != nil || st.Skipped != 1 || st.Replaced != 0 {
			t.Fatalf("stale merge (stamp %d) = %+v, %v; want skipped", stamp, st, err)
		}
	}
	got, _ = c.Do(context.Background(), key, func() (*app.Result, error) {
		return nil, errors.New("should not execute")
	})
	if !reflect.DeepEqual(got, newer) {
		t.Fatalf("stale merge displaced the newer result: %+v", got)
	}
}

// TestMergeSnapshotNeverTouchesInFlight: an entry whose run is still
// executing (waiters parked on it) is never merged over — the merge skips
// it and the in-flight execution's result is what every caller sees.
func TestMergeSnapshotNeverTouchesInFlight(t *testing.T) {
	c := NewRunCache()
	key := snapKey(9)
	fresh := snapResult(42)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *app.Result, 1)
	go func() {
		res, _ := c.Do(context.Background(), key, func() (*app.Result, error) {
			close(started)
			<-release
			return fresh, nil
		})
		done <- res
	}()
	<-started

	st, err := c.MergeSnapshot(mergeDoc(t, SnapshotVersion,
		snapshotEntry{Key: key, Result: snapResult(1), CompletedAtNS: 1 << 60}))
	if err != nil || st.Skipped != 1 || st.Added+st.Replaced != 0 {
		t.Fatalf("merge over in-flight entry = %+v, %v; want skipped", st, err)
	}
	close(release)
	if got := <-done; !reflect.DeepEqual(got, fresh) {
		t.Fatalf("in-flight execution returned %+v, want its own result", got)
	}
	got, _ := c.Do(context.Background(), key, func() (*app.Result, error) {
		return nil, errors.New("should not execute")
	})
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("resident entry after in-flight completion = %+v, want the executed result", got)
	}
}

// TestMergeSnapshotWhileServing: merges race a storm of Do calls over the
// same key space under -race; every Do must observe some complete,
// internally-consistent result and the stats stay coherent.
func TestMergeSnapshotWhileServing(t *testing.T) {
	c := NewRunCache()
	const keys = 16
	docs := make([][]byte, 4)
	for d := range docs {
		entries := make([]snapshotEntry, keys)
		for i := 0; i < keys; i++ {
			entries[i] = snapshotEntry{
				Key: snapKey(i), Result: snapResult(100*d + i),
				CompletedAtNS: int64(1000 * (d + 1)),
			}
		}
		docs[d] = mergeDoc(t, SnapshotVersion, entries...)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := snapKey((w*7 + i) % keys)
				res, err := c.Do(context.Background(), k, func() (*app.Result, error) {
					return snapResult(i), nil
				})
				if err != nil || res == nil {
					panic(fmt.Sprintf("Do(%v) = %v, %v", k, res, err))
				}
			}
		}(w)
	}
	for d := range docs {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			if _, err := c.MergeSnapshot(docs[d]); err != nil {
				panic(err)
			}
		}(d)
	}
	wg.Wait()

	st := c.Stats()
	if st.Entries != keys {
		t.Fatalf("entries after racing merges = %d, want %d", st.Entries, keys)
	}
	if int64(st.Entries)+st.Evictions > st.Misses+st.Loaded {
		t.Fatalf("stats incoherent after racing merges: %+v", st)
	}
}
