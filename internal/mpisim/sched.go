package mpisim

import (
	"container/heap"
	"fmt"
)

// This file is the discrete-event scheduler behind World/Comm: the
// virtual-clock run queue, the coroutine handoff, point-to-point delivery
// and the collective rendezvous. The concurrency discipline is ownership
// transfer, not locking: exactly one rank coroutine is awake at any
// moment, it alone mutates scheduler state, and ownership moves with the
// dispatch token sent on the next rank's resume channel (channel
// send/receive pairs give the happens-before edges the race detector
// wants). Teardown moves the same token: once the world is aborted —
// externally, by a deadlock or by a rank panic — dispatchNext passes it
// to the remaining ranks in rank order, each unwinds and retires, and the
// last to retire closes done for Run. Abort itself only sets a flag.

// rankState is what a rank waits on. A runnable rank is either queued or
// the one rank holding the dispatch token; the scheduler never needs to
// tell the two apart.
type rankState uint8

const (
	stRunnable rankState = iota
	stBlockedRecv
	stBlockedColl
	stDone
)

// sched is one world's scheduler.
type sched struct {
	w     *World
	ranks []*Comm
	runq  runHeap
	live  int // ranks whose body has not returned
	coll  collState
	vote  pollState
	// cursor is the teardown dispatch position: every rank below it has
	// retired.
	cursor int
	// done is closed by the last rank to retire.
	done chan struct{}
	// panicked is the first real rank panic and deadlock the deadlock
	// diagnostic; Run re-panics them after teardown.
	panicked string
	deadlock string

	// Event-core tallies, mutated only by the owning coroutine and
	// flushed to package atomics after the world completes (stats.go).
	events       int64
	collectives  int64
	inboxScans   int64
	inboxScanned int64
	maxRunq      int64
}

// collState is the single in-flight collective rendezvous (MPI programs
// enter collectives in lockstep, so one suffices — same invariant the
// retired engine's collSync relied on).
type collState struct {
	count   int
	max     int64
	waiters []*Comm
}

func newSched(w *World) *sched {
	s := &sched{w: w, ranks: make([]*Comm, w.P), live: w.P, done: make(chan struct{})}
	s.runq = make(runHeap, 0, w.P)
	for r := 0; r < w.P; r++ {
		s.ranks[r] = &Comm{world: w, rank: r, resume: make(chan struct{}, 1)}
	}
	return s
}

// start seeds the run queue with every rank at clock 0 (rank order) and
// dispatches the first. Called once, from Run's goroutine, before any rank
// owns the scheduler; the dispatch token transfers ownership.
func (s *sched) start() {
	for _, c := range s.ranks {
		c.state = stRunnable
		s.runq = append(s.runq, c)
	}
	heap.Init(&s.runq)
	s.noteRunq()
	s.dispatchNext()
}

// dispatchNext hands the scheduler to the earliest-clock runnable rank.
// If nothing is runnable but live ranks remain, every one of them is
// parked on a condition only another rank could satisfy — a true
// deadlock — and the world is torn down with a diagnostic. On an aborted
// world the token goes to the lowest-numbered live rank instead, which
// wakes in park and unwinds. Callers guarantee a live rank exists.
func (s *sched) dispatchNext() {
	if !s.w.aborted.Load() {
		if len(s.runq) > 0 {
			next := heap.Pop(&s.runq).(*Comm)
			s.events++
			next.resume <- struct{}{}
			return
		}
		s.failDeadlock()
	}
	for s.ranks[s.cursor].state == stDone {
		s.cursor++
	}
	// The resume channel holds one token, so this also works when the
	// next live rank is the caller, about to park in yield.
	s.ranks[s.cursor].resume <- struct{}{}
}

// park blocks the calling rank until the dispatch token arrives, and
// unwinds it with the sentinel if the world has been aborted.
func (s *sched) park(c *Comm) {
	<-c.resume
	if s.w.aborted.Load() {
		panic(abortPanic{})
	}
}

// yield parks the calling rank (whose blocked state and wake condition the
// caller has already recorded) after dispatching the next runnable rank,
// and returns when a peer's event completes it.
func (s *sched) yield(c *Comm) {
	s.dispatchNext()
	s.park(c)
}

// retire runs, deferred, as each rank goroutine exits, with the value the
// rank's body panicked with (nil if it returned). A real panic is
// recorded and poisons the world so the parked peers unwind instead of
// waiting for this rank forever. The last rank to retire wakes Run; every
// other passes the token on.
func (s *sched) retire(c *Comm, p interface{}) {
	if p != nil && !IsAbort(p) && s.panicked == "" {
		s.panicked = fmt.Sprintf("rank %d: %v", c.rank, p)
		s.w.aborted.Store(true)
	}
	c.state = stDone
	s.live--
	if s.live == 0 {
		close(s.done)
		return
	}
	s.dispatchNext()
}

// failDeadlock records a diagnostic and poisons the world so every parked
// rank unwinds. If an external Abort won the race the diagnostic is
// dropped — an aborted world hanging on blocked ranks is the sanctioned
// teardown, not a deadlock.
func (s *sched) failDeadlock() {
	var recvs, colls int
	var example *Comm
	for _, c := range s.ranks {
		switch c.state {
		case stBlockedRecv:
			recvs++
			if example == nil {
				example = c
			}
		case stBlockedColl:
			colls++
			if example == nil {
				example = c
			}
		}
	}
	diag := fmt.Sprintf("mpisim: deadlock: all %d live ranks blocked (%d in Recv, %d in a collective)",
		s.live, recvs, colls)
	if example != nil && example.state == stBlockedRecv {
		diag += fmt.Sprintf("; e.g. rank %d waiting on Recv(src=%d, tag=%d)",
			example.rank, example.wantSrc, example.wantTag)
	} else if example != nil {
		diag += fmt.Sprintf("; e.g. rank %d waiting in a collective (%d of %d ranks arrived)",
			example.rank, s.coll.count, s.w.P)
	}
	if s.w.aborted.CompareAndSwap(false, true) {
		s.deadlock = diag
	}
}

// send charges the caller's injection overhead and delivers the message:
// directly completing the destination if it is parked on a matching
// receive, otherwise appending to the sparse per-pair queue. Never blocks.
func (c *Comm) send(dst, tag int, bytes int64, data []byte) {
	c.checkAbort()
	if dst < 0 || dst >= c.world.P {
		panic(fmt.Sprintf("mpisim: send to invalid rank %d", dst))
	}
	// Local injection overhead: half the latency term.
	inject := int64(c.world.Mach.NetLatencyNS / 2)
	c.clock += inject
	c.CommNS += inject
	m := message{tag: tag, bytes: bytes, data: data, depart: c.clock}
	s := c.world.sched
	d := s.ranks[dst]
	if d.state == stBlockedRecv && d.wantSrc == c.rank && d.wantTag == tag {
		d.got = m
		d.completeRecv(m)
		d.state = stRunnable
		heap.Push(&s.runq, d)
		s.noteRunq()
		return
	}
	if d.inbox == nil {
		d.inbox = make(map[int][]message)
	}
	d.inbox[c.rank] = append(d.inbox[c.rank], m)
}

// recv returns the first message from src matching tag, in arrival order
// (the reorder-buffer semantics: earlier-arrived messages with other tags
// stay queued), blocking the coroutine if none has arrived yet.
func (c *Comm) recv(src, tag int) []byte {
	c.checkAbort()
	if src < 0 || src >= c.world.P {
		panic(fmt.Sprintf("mpisim: recv from invalid rank %d", src))
	}
	if q := c.inbox[src]; len(q) > 0 {
		s := c.world.sched
		s.inboxScans++
		for i, m := range q {
			if m.tag == tag {
				s.inboxScanned += int64(i + 1)
				c.inbox[src] = append(q[:i], q[i+1:]...)
				c.completeRecv(m)
				return m.data
			}
		}
		s.inboxScanned += int64(len(q))
	}
	c.state = stBlockedRecv
	c.wantSrc, c.wantTag = src, tag
	c.world.sched.yield(c)
	m := c.got
	c.got = message{}
	return m.data
}

// completeRecv synchronizes the receiver's clock with the message: arrival
// is the departure plus the network model's transfer time, and any wait is
// charged to CommNS. (Identical formula to the oracle engine — this is
// what the differential suite pins.)
func (c *Comm) completeRecv(m message) {
	arrive := m.depart + int64(c.world.Mach.MsgTimeNS(m.bytes))
	wait := arrive - c.clock
	if wait > 0 {
		c.clock = arrive
		c.CommNS += wait
	}
}

// arrive is the collective rendezvous: the first P-1 arrivers park, the
// last computes the clock maximum, marks every waiter runnable with the
// result, and continues — O(P) work and P-1 coroutine switches total,
// against the retired engine's broadcast storm.
func (s *sched) arrive(c *Comm) int64 {
	cs := &s.coll
	if c.clock > cs.max {
		cs.max = c.clock
	}
	cs.count++
	if cs.count == s.w.P {
		s.collectives++
		res := cs.max
		for _, wtr := range cs.waiters {
			wtr.collMax = res
			wtr.state = stRunnable
			heap.Push(&s.runq, wtr)
		}
		s.noteRunq()
		cs.waiters = cs.waiters[:0]
		cs.count = 0
		cs.max = 0
		return res
	}
	cs.waiters = append(cs.waiters, c)
	c.state = stBlockedColl
	s.yield(c)
	return c.collMax
}

// pollState is the single in-flight zero-cost vote (polls are issued in
// lockstep at iteration boundaries, the same invariant collState relies
// on): the running AND of the votes and the payload-equality flag.
type pollState struct {
	count   int
	all     bool
	same    bool
	first   int64
	waiters []*Comm
}

// poll is the zero-cost unanimity rendezvous behind Comm.Poll. It mirrors
// arrive's park/wake discipline but touches neither clocks nor CommNS:
// the result is true iff every rank voted yes and every payload was equal.
func (s *sched) poll(c *Comm, yes bool, payload int64) bool {
	ps := &s.vote
	if ps.count == 0 {
		ps.all, ps.same, ps.first = true, true, payload
	} else if payload != ps.first {
		ps.same = false
	}
	if !yes {
		ps.all = false
	}
	ps.count++
	if ps.count == s.w.P {
		res := ps.all && ps.same
		for _, wtr := range ps.waiters {
			wtr.pollRes = res
			wtr.state = stRunnable
			heap.Push(&s.runq, wtr)
		}
		s.noteRunq()
		ps.waiters = ps.waiters[:0]
		ps.count = 0
		return res
	}
	ps.waiters = append(ps.waiters, c)
	c.state = stBlockedColl
	s.yield(c)
	return c.pollRes
}

// runHeap orders runnable ranks by (virtual clock, rank): the earliest
// clock runs first, ties broken by rank id, which makes the whole event
// order deterministic.
type runHeap []*Comm

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].rank < h[j].rank
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) {
	*h = append(*h, x.(*Comm))
}
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
