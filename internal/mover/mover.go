// Package mover implements Unimem's proactive data movement mechanism
// (§3.1.2 "Calculation of data movement cost" and §3.3): the helper thread
// that copies data in parallel with the application, fed from a FIFO
// queue the main thread checks at the beginning of each phase.
//
// The helper thread is a virtual timeline, not a goroutine. Requests wait
// in a per-rank FIFO and are applied to the simulated heap, in queue
// order, at the main thread's synchronization points; a migration occupies
// the timeline for the (fromTier, toTier) edge's copy time on the
// machine's tier graph, starting no earlier than both its enqueue point
// and the previous copy's completion. The portion of a migration not
// finished by the time the main thread needs it is the exposed
// (non-overlapped) cost — Eq. 4's COST after overlap.
package mover

import (
	"unimem/internal/machine"
	"unimem/internal/memsys"
)

// Request asks the helper thread to migrate one chunk.
type Request struct {
	Chunk *memsys.Chunk
	To    machine.TierKind
	// EnqueueNS is the main thread's virtual time at enqueue (the earliest
	// the copy may begin).
	EnqueueNS int64
	seq       uint64
}

// Seq returns the request's ticket number (the value Enqueue returned) —
// the join key observers use to match completions against metadata the
// enqueuer recorded, e.g. the explain layer's migration triggers.
func (r Request) Seq() uint64 { return r.seq }

// Completion records a finished (or failed) migration.
type Completion struct {
	Req Request
	// From is the tier the chunk occupied when the copy was applied (the
	// source edge of the tier graph; equals Req.To for no-op moves).
	From       machine.TierKind
	StartNS    int64
	EndNS      int64
	BytesMoved int64
	Err        error
}

// Stats aggregates the mover's activity for Table 4.
type Stats struct {
	Enqueued   int
	Completed  int
	Failed     int
	BytesMoved int64
	// CopyNS is the total virtual time spent copying.
	CopyNS float64
	// ExposedNS is the total virtual stall charged to the main thread at
	// sync points (the non-overlapped migration cost).
	ExposedNS float64
	// SyncChecks counts queue-status checks (each costs SyncCheckNS on the
	// main thread's critical path; part of "pure runtime cost").
	SyncChecks int
}

// OverlapFrac returns the fraction of copy time hidden by computation.
func (s Stats) OverlapFrac() float64 {
	if s.CopyNS <= 0 {
		return 1
	}
	f := 1 - s.ExposedNS/s.CopyNS
	if f < 0 {
		return 0
	}
	return f
}

// SyncCheckNS is the main-thread cost of one queue-status check.
const SyncCheckNS = 200

// Mover is one rank's helper thread: a FIFO of migration requests and the
// virtual timeline that copies them.
//
// Only the owning rank's goroutine touches a Mover. A request's effect on
// the simulated heap (the tier change TierOf observes) is applied at that
// goroutine's synchronization points — Drain at each phase boundary, Sync
// for dependence-required tickets, Stop at loop end — in FIFO order. The
// virtual copy timeline (freeAtNS, exposed stalls) depends only on enqueue
// times and queue order, so results are a pure function of the virtual
// schedule; this is what lets the experiment engine run many simulated
// worlds concurrently.
type Mover struct {
	heap        *memsys.Heap
	freeAtNS    int64  // helper's virtual availability
	nextSeq     uint64 // last ticket handed out by Enqueue
	pending     []Request
	completions map[uint64]Completion
	stats       Stats
	observer    func(Completion)
}

// SetObserver registers a callback invoked at the apply points for every
// completion — the tracing hook that turns migrations into timeline
// spans. nil disables. The callback must not call back into the Mover.
func (m *Mover) SetObserver(fn func(Completion)) { m.observer = fn }

// New returns a mover for the heap.
func New(h *memsys.Heap) *Mover {
	return &Mover{heap: h, completions: make(map[uint64]Completion)}
}

// Stop applies every outstanding move (unimem_end in the paper).
func (m *Mover) Stop() { m.apply(m.nextSeq) }

// apply pops pending requests with seq <= upto and applies them in FIFO
// order: move the chunk on the heap, advance the virtual copy timeline,
// post the completion.
func (m *Mover) apply(upto uint64) {
	for len(m.pending) > 0 && m.pending[0].seq <= upto {
		req := m.pending[0]
		m.pending = m.pending[1:]
		from := m.heap.TierOf(req.Chunk)
		bytes, err := m.heap.MoveChunk(req.Chunk, req.To)
		start := req.EnqueueNS
		if m.freeAtNS > start {
			start = m.freeAtNS
		}
		var end int64
		if err != nil {
			end = start // failed moves occupy no copy time
			m.stats.Failed++
		} else {
			// The copy runs on the tier graph's (from, to) edge; on
			// two-tier machines this is the hierarchy-wide copy bandwidth.
			copyNS := m.heap.Mach.CopyTimeBetweenNS(from, req.To, bytes)
			end = start + int64(copyNS)
			m.stats.CopyNS += copyNS
			m.stats.Completed++
			m.stats.BytesMoved += bytes
		}
		m.freeAtNS = end
		comp := Completion{Req: req, From: from, StartNS: start, EndNS: end, BytesMoved: bytes, Err: err}
		m.completions[req.seq] = comp
		if m.observer != nil {
			m.observer(comp)
		}
	}
}

// Enqueue posts a migration request at the main thread's virtual time nowNS
// and returns a ticket to wait on. The put itself is lightweight (paper:
// "checking the queue status and putting data movement requests into the
// queue is lightweight").
func (m *Mover) Enqueue(c *memsys.Chunk, to machine.TierKind, nowNS int64) uint64 {
	m.nextSeq++
	m.stats.Enqueued++
	m.pending = append(m.pending, Request{Chunk: c, To: to, EnqueueNS: nowNS, seq: m.nextSeq})
	return m.nextSeq
}

// Sync applies all requests up to and including seq, then returns the
// virtual stall the main thread suffers at virtual time nowNS: how far the
// last relevant completion lies in the virtual future. A fully overlapped
// migration returns 0.
//
// Pass seq 0 to just perform the per-phase queue-status check (which still
// costs SyncCheckNS on the critical path).
func (m *Mover) Sync(seq uint64, nowNS int64) (stallNS int64) {
	m.stats.SyncChecks++
	m.apply(seq)
	var latest int64
	for s := seq; s > 0; s-- {
		c, ok := m.completions[s]
		if !ok {
			break
		}
		if c.EndNS > latest {
			latest = c.EndNS
		}
		delete(m.completions, s)
	}
	if latest > nowNS {
		stall := latest - nowNS
		m.stats.ExposedNS += float64(stall)
		return stall
	}
	return 0
}

// Drain applies every request enqueued so far to the heap, without
// charging any virtual time. The runtime calls it at each phase boundary
// so that a migration's heap-state effect becomes visible at a
// deterministic virtual point (the boundary after its enqueue); the
// virtual copy timeline (freeAtNS, exposed stalls) is unaffected.
func (m *Mover) Drain() { m.apply(m.nextSeq) }

// Idle reports whether the helper thread has nothing in flight: the FIFO
// is empty. The analytic fast path requires an idle mover before
// fast-forwarding — an in-flight migration's exposed cost would otherwise
// be extrapolated into iterations that should have absorbed it once.
func (m *Mover) Idle() bool { return len(m.pending) == 0 }

// Stats returns a snapshot of the mover's accounting.
func (m *Mover) Stats() Stats { return m.stats }
