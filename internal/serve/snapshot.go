package serve

// This file is the server's snapshot exchange and readiness face: the
// snapshot endpoints (GET /snapshot, POST /snapshot/merge), the merge and
// snapshot-age blocks of /stats, and the readiness probe that load
// balancers watch while a snapshot merges or the daemon drains.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"unimem/internal/exp"
)

// maxSnapshotBytes bounds one POST /snapshot/merge body. Snapshot entries
// are a few KB each; 256 MiB covers any cache the entry budget allows
// while still bounding what an untrusted sender can make this node buffer.
const maxSnapshotBytes = 256 << 20

// SetDraining flips the draining state: the SIGTERM handler sets it
// before http.Server.Shutdown so /readyz goes 503 while in-flight
// requests finish. /healthz (liveness) is unaffected — the process is up.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// handleReadyz is the readiness probe: 200 when the node should receive
// traffic, 503 (with the blocking reasons) while draining or while a
// snapshot merge is in progress.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.merging.Load() > 0 {
		reasons = append(reasons, "snapshot-merge")
	}
	if len(reasons) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reasons": reasons})
		return
	}
	writeJSON(w, map[string]any{"ready": true, "version": Version()})
}

// handleSnapshot streams the run cache as a snapshot document — the same
// bytes SaveSnapshot writes to disk — for other daemons (and operators)
// to merge.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := s.cache.WriteSnapshot(w); err != nil {
		// Headers are gone; all we can do is log.
		s.cfg.Logf("serve: writing snapshot: %v", err)
	}
}

// MergeResponse is POST /snapshot/merge's reply.
type MergeResponse struct {
	exp.MergeStats
	// Entries is the resident cache entry count after the merge.
	Entries int `json:"entries"`
}

// handleSnapshotMerge merges a posted snapshot document into the live
// cache. The cache's own guarantees make this safe mid-serve: the whole
// payload decodes and version-checks before anything is touched (a
// corrupt payload leaves the cache exactly as it was → 400), in-flight
// entries are never merged over, and same-key conflicts resolve
// newer-completed-wins. /readyz reports not-ready for the duration.
func (s *Server) handleSnapshotMerge(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading snapshot: %v", err)
		return
	}
	s.merging.Add(1)
	defer s.merging.Add(-1)
	st, err := s.cache.MergeSnapshot(body)
	if err != nil {
		if errors.Is(err, exp.ErrSnapshotVersion) {
			httpError(w, http.StatusBadRequest, "%v", err)
		} else {
			httpError(w, http.StatusBadRequest, "merging snapshot: %v", err)
		}
		return
	}
	s.snapMu.Lock()
	s.lastMerge = time.Now()
	s.lastMergeSt = st
	s.mergeCount++
	s.mergeAdded += st.Added
	s.mergeReplaced += st.Replaced
	s.snapMu.Unlock()
	writeJSON(w, MergeResponse{MergeStats: st, Entries: s.cache.Stats().Entries})
}

// snapshotAge reports seconds since the on-disk snapshot was written
// (from the file's mtime, so it is meaningful across restarts), or -1
// when no snapshot file exists.
func (s *Server) snapshotAge() float64 {
	path := s.SnapshotPath()
	if path == "" {
		return -1
	}
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return time.Since(fi.ModTime()).Seconds()
}

// statsSnapshot fills the snapshot-age and merge blocks of /stats.
func (s *Server) statsSnapshot(resp *StatsResponse) {
	if resp.Snapshot != nil {
		resp.Snapshot.AgeSeconds = s.snapshotAge()
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if resp.Snapshot != nil && !s.lastSave.IsZero() {
		resp.Snapshot.LastSaveUnixNS = s.lastSave.UnixNano()
		resp.Snapshot.LastSaveEntries = s.lastSaveCount
	}
	if s.mergeCount > 0 {
		resp.Merge = &MergeJSON{
			LastUnixNS:    s.lastMerge.UnixNano(),
			Last:          s.lastMergeSt,
			Merges:        s.mergeCount,
			TotalAdded:    s.mergeAdded,
			TotalReplaced: s.mergeReplaced,
		}
	}
}
