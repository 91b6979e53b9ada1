package mpisim

import "sync/atomic"

// Event-core counters. Each world's scheduler tallies into plain fields —
// safe under the single-owner discipline (exactly one rank coroutine
// mutates scheduler state at a time) — and World.Run flushes them into
// these package atomics exactly once, after the last rank returns. That
// keeps the dispatch/receive hot paths free of atomic traffic while still
// giving the observability layer live totals across all worlds in the
// process.
var (
	statWorlds       atomic.Int64
	statEvents       atomic.Int64
	statCollectives  atomic.Int64
	statInboxScans   atomic.Int64
	statInboxScanned atomic.Int64
	statMaxRunq      atomic.Int64 // process-wide high-water mark
)

// CoreStats is a snapshot of the discrete-event core's cumulative
// counters since process start, across every World that has completed
// (including aborted ones — their events were still dispatched).
type CoreStats struct {
	// Worlds is the number of World.Run calls that have finished.
	Worlds int64 `json:"worlds"`
	// Events is the number of scheduler dispatches (run-queue pops).
	Events int64 `json:"events"`
	// Collectives is the number of completed collective rendezvous.
	Collectives int64 `json:"collectives"`
	// InboxScans is the number of linear tag-match scans over a
	// non-empty per-source receive queue.
	InboxScans int64 `json:"inbox_scans"`
	// InboxScanned is the total messages examined by those scans; the
	// ratio InboxScanned/InboxScans is the mean scan length — the number
	// a future indexed-inbox optimization would drive toward 1.
	InboxScanned int64 `json:"inbox_scanned"`
	// MaxRunqDepth is the deepest run queue observed in any world.
	MaxRunqDepth int64 `json:"max_runq_depth"`
}

// ReadCoreStats returns the current process-wide event-core counters.
func ReadCoreStats() CoreStats {
	return CoreStats{
		Worlds:       statWorlds.Load(),
		Events:       statEvents.Load(),
		Collectives:  statCollectives.Load(),
		InboxScans:   statInboxScans.Load(),
		InboxScanned: statInboxScanned.Load(),
		MaxRunqDepth: statMaxRunq.Load(),
	}
}

// noteRunq records the run-queue depth high-water mark; called after
// pushes, by the owning coroutine.
func (s *sched) noteRunq() {
	if n := int64(len(s.runq)); n > s.maxRunq {
		s.maxRunq = n
	}
}

// flushStats publishes the world's tallies to the package atomics.
// Called once from Run after the last rank retires — closing done gives
// the happens-before edge from the last scheduler mutation.
func (s *sched) flushStats() {
	statWorlds.Add(1)
	statEvents.Add(s.events)
	statCollectives.Add(s.collectives)
	statInboxScans.Add(s.inboxScans)
	statInboxScanned.Add(s.inboxScanned)
	for {
		cur := statMaxRunq.Load()
		if s.maxRunq <= cur || statMaxRunq.CompareAndSwap(cur, s.maxRunq) {
			return
		}
	}
}
