package exp

// This file is the RunCache's snapshot persistence and exchange layer: a
// versioned JSON format that a long-lived server (cmd/unimem-serve) writes
// on shutdown and reads on startup — so a restarted process answers
// previously-served deterministic runs as cache hits instead of
// re-simulating them — and that independent daemons exchange over HTTP
// (GET /snapshot → POST /snapshot/merge) so a fresh daemon warm-starts
// from a running one's cache.
//
// Versioning is two-layered. The file carries an explicit format version
// (SnapshotVersion) guarding the envelope; the entries version themselves
// through their RunKeys — the machine performance fingerprint and the
// scenario spec digest are part of every key, so entries written against a
// different fingerprint scheme, machine parameterization or spec body can
// never match a live request. A mismatched envelope is reported as an
// error (callers cold-start); mismatched keys are merely dead weight that
// ages out through the LRU.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"unimem/internal/app"
)

// SnapshotVersion is the on-disk envelope version. Bump it when the entry
// schema changes shape (not when key semantics change — keys self-version
// through fingerprint and digest). The completed_at_ns stamp rode in as an
// optional field: version-1 files without it decode with zero stamps,
// which merge treats as "older than anything stamped".
const SnapshotVersion = 1

// ErrSnapshotVersion reports an envelope whose version differs from
// SnapshotVersion; callers should treat the snapshot as absent.
var ErrSnapshotVersion = errors.New("exp: run-cache snapshot has incompatible version")

// snapshotFile is the on-disk (and on-the-wire) envelope.
type snapshotFile struct {
	Version int             `json:"version"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one persisted run: its identity, its result and when it
// completed. Errors and in-flight runs are never persisted — only
// successful completed executions are worth warming a restart (or another
// daemon) with.
type snapshotEntry struct {
	Key    RunKey      `json:"key"`
	Result *app.Result `json:"result"`
	// CompletedAtNS is the completing node's wall clock (unix nanoseconds)
	// when the run finished. Merges resolve same-key conflicts by it:
	// the newer completed run wins.
	CompletedAtNS int64 `json:"completed_at_ns,omitempty"`
}

// snapshotDoc collects every completed successful entry into an envelope.
// Entries are written least-recently-used first per shard, so loading
// reconstructs each shard's recency order.
func (c *RunCache) snapshotDoc() snapshotFile {
	snap := snapshotFile{Version: SnapshotVersion}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			if !e.completed || e.err != nil || e.res == nil {
				continue
			}
			snap.Entries = append(snap.Entries, snapshotEntry{
				Key: e.key, Result: e.res, CompletedAtNS: e.completedAt,
			})
		}
		sh.mu.Unlock()
	}
	return snap
}

// WriteSnapshot encodes the snapshot document to w (the GET /snapshot
// wire path — the byte stream is identical to what SaveSnapshot writes to
// disk). It returns the number of entries written.
func (c *RunCache) WriteSnapshot(w io.Writer) (int, error) {
	if c == nil {
		return 0, errors.New("exp: WriteSnapshot on nil RunCache")
	}
	snap := c.snapshotDoc()
	if err := json.NewEncoder(w).Encode(&snap); err != nil {
		return 0, fmt.Errorf("exp: encoding run-cache snapshot: %w", err)
	}
	return len(snap.Entries), nil
}

// SaveSnapshot atomically writes every completed successful entry to path
// (temp file in the same directory, then rename), creating parent
// directories as needed. It returns the number of entries written.
func (c *RunCache) SaveSnapshot(path string) (int, error) {
	if c == nil {
		return 0, errors.New("exp: SaveSnapshot on nil RunCache")
	}
	snap := c.snapshotDoc()
	data, err := json.Marshal(&snap)
	if err != nil {
		return 0, fmt.Errorf("exp: encoding run-cache snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, ".runcache-*.tmp")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return len(snap.Entries), nil
}

// LoadSnapshot seeds the cache from a snapshot file written by
// SaveSnapshot. A missing file is not an error (cold start, 0 entries). A
// version mismatch returns ErrSnapshotVersion (wrapped), a corrupt file a
// decode error; in both cases nothing is loaded and callers should proceed
// cold. Loaded entries count in CacheStats.Loaded, not as misses, and
// respect the cache's entry/byte budgets (the most recently used entries
// of an over-budget snapshot win).
func (c *RunCache) LoadSnapshot(path string) (int, error) {
	if c == nil {
		return 0, errors.New("exp: LoadSnapshot on nil RunCache")
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	st, err := c.MergeSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("exp: run-cache snapshot %s: %w", path, err)
	}
	return st.Added + st.Replaced, nil
}

// MergeStats reports what one MergeSnapshot did.
type MergeStats struct {
	// Added counts entries for keys the cache did not hold.
	Added int `json:"added"`
	// Replaced counts completed local entries superseded by a strictly
	// newer incoming completion stamp (newer completed run wins).
	Replaced int `json:"replaced"`
	// Skipped counts incoming entries that lost a conflict: the local
	// entry was in flight (never merged over), or completed at least as
	// recently as the incoming one.
	Skipped int `json:"skipped"`
}

// MergeSnapshot merges a snapshot document (the bytes SaveSnapshot /
// WriteSnapshot produce) into the live cache — the POST /snapshot/merge
// wire path. Merging is safe while the cache is serving.
//
// The whole document is decoded and version-checked before the cache is
// touched, so a corrupt or incompatible payload leaves the local cache
// exactly as it was. Conflicts resolve per entry: in-flight local entries
// are never merged over; between two completed runs of the same key the
// newer completion stamp wins. Merged entries count as Loaded and respect
// the entry/byte budgets.
func (c *RunCache) MergeSnapshot(data []byte) (MergeStats, error) {
	var st MergeStats
	if c == nil {
		return st, errors.New("exp: MergeSnapshot on nil RunCache")
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return st, fmt.Errorf("decoding run-cache snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return st, fmt.Errorf("%w: got version %d, want %d",
			ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	for _, se := range snap.Entries {
		if se.Result == nil {
			continue
		}
		switch c.seedResult(se.Key, se.Result, se.CompletedAtNS) {
		case seedAdded:
			st.Added++
		case seedReplaced:
			st.Replaced++
		default:
			st.Skipped++
		}
	}
	return st, nil
}
