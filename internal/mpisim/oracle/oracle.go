// Package oracle is the retired goroutine-per-rank MPI engine, kept as the
// reference implementation for differential validation of the event-driven
// core in package mpisim (the Quartz discipline: an emulation layer is only
// trustworthy when checked against a reference).
//
// Every rank is a real goroutine; point-to-point messages travel over an
// eagerly allocated ranks² matrix of 1024-buffered channels and collectives
// rendezvous on a sync.Cond. Those two choices are exactly why it was
// retired: NewWorld is O(ranks²) in memory, a send blocks once 1024 messages
// are in flight to one destination (the latent SendRecv deadlock), and
// collective broadcasts thrash the Go scheduler. Its virtual-clock
// *semantics*, however, are the contract: per-rank final Clock() and CommNS
// are dataflow-deterministic, so the event core must reproduce them exactly.
// The differential suite (mpisim's diff and fuzz tests) and the engine
// gate in package simprog's tests are the only intended importers;
// production code must use package mpisim.
package oracle

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"unimem/internal/machine"
)

// Hook is the PMPI interposition callback: op is the MPI operation name
// ("Send", "Allreduce", ...), invoked on the calling rank's goroutine before
// the operation executes.
type Hook interface {
	MPICall(rank int, op string)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(rank int, op string)

// MPICall implements Hook.
func (f HookFunc) MPICall(rank int, op string) { f(rank, op) }

// message is one point-to-point payload. Data is optional real bytes; the
// clock synchronization uses Bytes (simulated size) and the departure time.
type message struct {
	tag    int
	bytes  int64
	data   []byte
	depart int64 // sender virtual time when the message left
}

// World is a fixed-size communicator of P ranks.
type World struct {
	P    int
	Mach *machine.Machine

	// mail[src][dst] carries messages; buffered so Isend never blocks the
	// sender goroutine for the eager sizes our workloads use.
	mail [][]chan message
	coll *collSync

	// abortCh is closed by Abort; every blocking communication primitive
	// selects on it so no rank stays parked after the world is torn down.
	abortCh   chan struct{}
	abortOnce sync.Once
	aborted   atomic.Bool
}

// NewWorld creates a world of p ranks over the given machine.
func NewWorld(p int, m *machine.Machine) *World {
	if p <= 0 {
		panic("mpisim: world size must be positive")
	}
	mail := make([][]chan message, p)
	for s := range mail {
		mail[s] = make([]chan message, p)
		for d := range mail[s] {
			mail[s][d] = make(chan message, 1024)
		}
	}
	return &World{P: p, Mach: m, mail: mail, coll: newCollSync(p), abortCh: make(chan struct{})}
}

// Abort poisons the world: every blocked or future communication operation
// returns immediately instead of waiting for peers, and Aborted reports
// true. Rank bodies are expected to notice the flag at their next
// decision point and unwind; results of an aborted run are meaningless and
// must be discarded. Abort is idempotent and safe from any goroutine — it
// is how a context cancellation reaches ranks parked inside collectives.
func (w *World) Abort() {
	w.abortOnce.Do(func() {
		w.aborted.Store(true)
		close(w.abortCh)
		w.coll.abort()
	})
}

// Aborted reports whether Abort has been called.
func (w *World) Aborted() bool { return w.aborted.Load() }

// Run spawns one goroutine per rank executing body and blocks until all
// ranks return. Panics in rank bodies propagate after all ranks finish or
// the panicking rank unwinds (fail-fast for tests).
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan interface{}, w.P)
	for r := 0; r < w.P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", rank, p)
				}
			}()
			body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Comm is one rank's endpoint: rank id, virtual clock, pending-message
// reorder buffers and the PMPI hook.
type Comm struct {
	world *World
	rank  int
	clock int64
	hook  Hook
	// pending holds messages received from a source ahead of the tag the
	// caller asked for (tag-matching reorder buffer).
	pending map[int][]message

	// CommNS accumulates virtual time spent inside MPI operations
	// (communication + synchronization wait), for reporting.
	CommNS int64
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.P }

// World returns the communicator's world.
func (c *Comm) World() *World { return c.world }

// Clock returns the rank's current virtual time in ns.
func (c *Comm) Clock() int64 { return c.clock }

// Advance moves the rank's virtual clock forward by d ns (compute time,
// memory time, runtime overhead — anything local).
func (c *Comm) Advance(d int64) {
	if d < 0 {
		panic("mpisim: negative clock advance")
	}
	c.clock += d
}

// AdvanceTo moves the clock to t if t is later.
func (c *Comm) AdvanceTo(t int64) {
	if t > c.clock {
		c.clock = t
	}
}

// SetHook registers the PMPI interposition hook (nil disables).
func (c *Comm) SetHook(h Hook) { c.hook = h }

func (c *Comm) callHook(op string) {
	if c.hook != nil {
		c.hook.MPICall(c.rank, op)
	}
}

// Send transmits bytes simulated bytes (with optional real payload) to dst
// with the given tag. The sender is charged the local injection overhead.
func (c *Comm) Send(dst, tag int, bytes int64, data []byte) {
	c.callHook("Send")
	c.send(dst, tag, bytes, data)
}

func (c *Comm) send(dst, tag int, bytes int64, data []byte) {
	if dst < 0 || dst >= c.world.P {
		panic(fmt.Sprintf("mpisim: send to invalid rank %d", dst))
	}
	// Local injection overhead: half the latency term.
	inject := int64(c.world.Mach.NetLatencyNS / 2)
	c.clock += inject
	c.CommNS += inject
	select {
	case c.world.mail[c.rank][dst] <- message{tag: tag, bytes: bytes, data: data, depart: c.clock}:
	case <-c.world.abortCh:
	}
}

// Recv blocks until a message with the tag arrives from src, synchronizes
// the virtual clock with the sender, and returns the payload.
func (c *Comm) Recv(src, tag int) []byte {
	c.callHook("Recv")
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) []byte {
	if src < 0 || src >= c.world.P {
		panic(fmt.Sprintf("mpisim: recv from invalid rank %d", src))
	}
	if c.pending == nil {
		c.pending = make(map[int][]message)
	}
	// Check the reorder buffer first.
	q := c.pending[src]
	for i, m := range q {
		if m.tag == tag {
			c.pending[src] = append(q[:i], q[i+1:]...)
			c.completeRecv(m)
			return m.data
		}
	}
	for {
		select {
		case m := <-c.world.mail[src][c.rank]:
			if m.tag == tag {
				c.completeRecv(m)
				return m.data
			}
			c.pending[src] = append(c.pending[src], m)
		case <-c.world.abortCh:
			return nil
		}
	}
}

func (c *Comm) completeRecv(m message) {
	arrive := m.depart + int64(c.world.Mach.MsgTimeNS(m.bytes))
	wait := arrive - c.clock
	if wait > 0 {
		c.clock = arrive
		c.CommNS += wait
	}
}

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	comm *Comm
	done bool
	// recv fields
	isRecv   bool
	src, tag int
	data     []byte
}

// Isend starts a non-blocking send. With buffered channels the payload is
// injected immediately; the returned request completes trivially, matching
// MPI's eager protocol for the message sizes the workloads use. Per the
// paper's phase definition, a non-blocking call is not a phase boundary, so
// Isend does not invoke the PMPI hook; the completion (Wait) does.
func (c *Comm) Isend(dst, tag int, bytes int64, data []byte) *Request {
	c.send(dst, tag, bytes, data)
	return &Request{comm: c, done: true}
}

// Irecv starts a non-blocking receive, completed (and clock-synchronized)
// by Wait.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{comm: c, isRecv: true, src: src, tag: tag}
}

// Wait completes a non-blocking operation. It is a communication-completion
// operation and therefore a phase boundary (invokes the PMPI hook).
func (r *Request) Wait() []byte {
	r.comm.callHook("Wait")
	if r.done {
		return r.data
	}
	r.done = true
	if r.isRecv {
		r.data = r.comm.recv(r.src, r.tag)
	}
	return r.data
}

// collSync implements clock-maximizing rendezvous for collectives.
type collSync struct {
	mu    sync.Mutex
	cond  *sync.Cond
	p     int
	count int
	gen   int
	max   int64
	prev  int64 // result of the last completed generation
	// down is set by abort: arrive stops waiting for absent peers and
	// returns the caller's own clock (the run's results are discarded).
	down bool
}

func newCollSync(p int) *collSync {
	cs := &collSync{p: p}
	cs.cond = sync.NewCond(&cs.mu)
	return cs
}

// arrive blocks until all p ranks have arrived and returns the maximum
// clock among them.
func (cs *collSync) arrive(clock int64) int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.down {
		return clock
	}
	gen := cs.gen
	if clock > cs.max {
		cs.max = clock
	}
	cs.count++
	if cs.count == cs.p {
		cs.prev = cs.max
		cs.count = 0
		cs.max = 0
		cs.gen++
		cs.cond.Broadcast()
		return cs.prev
	}
	for cs.gen == gen && !cs.down {
		cs.cond.Wait()
	}
	if cs.down {
		return clock
	}
	return cs.prev
}

// abort wakes every waiter and makes all future rendezvous non-blocking.
func (cs *collSync) abort() {
	cs.mu.Lock()
	cs.down = true
	cs.cond.Broadcast()
	cs.mu.Unlock()
}

// logP returns ceil(log2(P)), minimum 1.
func (w *World) logP() float64 {
	if w.P <= 1 {
		return 1
	}
	return math.Ceil(math.Log2(float64(w.P)))
}

// collective aligns all ranks on the latest arrival, then charges cost ns.
func (c *Comm) collective(op string, cost float64) {
	c.callHook(op)
	before := c.clock
	max := c.world.coll.arrive(c.clock)
	c.clock = max + int64(cost)
	c.CommNS += c.clock - before
}

// Barrier synchronizes all ranks (log P latency exchanges).
func (c *Comm) Barrier() {
	c.collective("Barrier", 2*c.world.logP()*c.world.Mach.NetLatencyNS)
}

// Allreduce models a recursive-doubling allreduce of bytes per rank.
func (c *Comm) Allreduce(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Allreduce", 2*c.world.logP()*per)
}

// Bcast models a binomial-tree broadcast of bytes.
func (c *Comm) Bcast(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Bcast", c.world.logP()*per)
}

// Reduce models a binomial-tree reduction of bytes.
func (c *Comm) Reduce(bytes int64) {
	per := c.world.Mach.MsgTimeNS(bytes)
	c.collective("Reduce", c.world.logP()*per)
}

// Alltoall models a personalized all-to-all exchanging bytes per rank pair.
func (c *Comm) Alltoall(bytesPerPair int64) {
	per := c.world.Mach.MsgTimeNS(bytesPerPair)
	c.collective("Alltoall", float64(c.world.P-1)*per)
}

// SendRecv performs a blocking exchange with the two peers: sends to dst and
// receives from src (the classic halo-exchange primitive). It uses the
// non-blocking forms internally so opposing pairs cannot deadlock.
func (c *Comm) SendRecv(dst, src, tag int, bytes int64, data []byte) []byte {
	c.callHook("SendRecv")
	c.send(dst, tag, bytes, data)
	return c.recv(src, tag)
}
