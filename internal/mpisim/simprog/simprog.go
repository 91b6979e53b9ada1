// Package simprog is the engine-agnostic program layer over the two MPI
// engines: the production event-driven core (package mpisim) and the
// retired goroutine reference engine (package mpisim/oracle). It exists so
// the exact same rank program can execute on both — the differential and
// fuzz suites use it to assert per-rank clock equivalence, and the engine
// gate in its tests measures the engines against each other on micro and
// macro benchmarks.
package simprog

import (
	"unimem/internal/machine"
	"unimem/internal/mpisim"
	"unimem/internal/mpisim/oracle"
)

// Waiter completes a non-blocking operation.
type Waiter interface {
	Wait() []byte
}

// Comm is the engine-neutral rank endpoint: the intersection of the two
// engines' Comm APIs that programs need.
type Comm interface {
	Rank() int
	Size() int
	Clock() int64
	CommNS() int64
	Advance(d int64)
	Send(dst, tag int, bytes int64, data []byte)
	Recv(src, tag int) []byte
	Isend(dst, tag int, bytes int64, data []byte) Waiter
	Irecv(src, tag int) Waiter
	SendRecv(dst, src, tag int, bytes int64, data []byte) []byte
	Barrier()
	Allreduce(bytes int64)
	Bcast(bytes int64)
	Reduce(bytes int64)
	Alltoall(bytesPerPair int64)
}

// Engine constructs and runs worlds of one implementation.
type Engine interface {
	Name() string
	// Run executes body on a fresh p-rank world over m and blocks until
	// every rank returns.
	Run(p int, m *machine.Machine, body func(Comm))
}

// Event is the production event-driven engine.
var Event Engine = eventEngine{}

// Oracle is the retired goroutine-per-rank reference engine. Its NewWorld
// allocates a ranks² mailbox matrix of 1024-buffered channels, so keep
// worlds small (≤ a few hundred ranks) or the allocation alone dominates.
var Oracle Engine = oracleEngine{}

type eventEngine struct{}

func (eventEngine) Name() string { return "event" }

func (eventEngine) Run(p int, m *machine.Machine, body func(Comm)) {
	w := mpisim.NewWorld(p, m)
	w.Run(func(c *mpisim.Comm) { body(eventComm{c}) })
}

type eventComm struct{ c *mpisim.Comm }

func (e eventComm) Rank() int       { return e.c.Rank() }
func (e eventComm) Size() int       { return e.c.Size() }
func (e eventComm) Clock() int64    { return e.c.Clock() }
func (e eventComm) CommNS() int64   { return e.c.CommNS }
func (e eventComm) Advance(d int64) { e.c.Advance(d) }
func (e eventComm) Send(dst, tag int, bytes int64, data []byte) {
	e.c.Send(dst, tag, bytes, data)
}
func (e eventComm) Recv(src, tag int) []byte { return e.c.Recv(src, tag) }
func (e eventComm) Isend(dst, tag int, bytes int64, data []byte) Waiter {
	return e.c.Isend(dst, tag, bytes, data)
}
func (e eventComm) Irecv(src, tag int) Waiter { return e.c.Irecv(src, tag) }
func (e eventComm) SendRecv(dst, src, tag int, bytes int64, data []byte) []byte {
	return e.c.SendRecv(dst, src, tag, bytes, data)
}
func (e eventComm) Barrier()                    { e.c.Barrier() }
func (e eventComm) Allreduce(bytes int64)       { e.c.Allreduce(bytes) }
func (e eventComm) Bcast(bytes int64)           { e.c.Bcast(bytes) }
func (e eventComm) Reduce(bytes int64)          { e.c.Reduce(bytes) }
func (e eventComm) Alltoall(bytesPerPair int64) { e.c.Alltoall(bytesPerPair) }

type oracleEngine struct{}

func (oracleEngine) Name() string { return "oracle" }

func (oracleEngine) Run(p int, m *machine.Machine, body func(Comm)) {
	w := oracle.NewWorld(p, m)
	w.Run(func(c *oracle.Comm) { body(oracleComm{c}) })
}

type oracleComm struct{ c *oracle.Comm }

func (o oracleComm) Rank() int       { return o.c.Rank() }
func (o oracleComm) Size() int       { return o.c.Size() }
func (o oracleComm) Clock() int64    { return o.c.Clock() }
func (o oracleComm) CommNS() int64   { return o.c.CommNS }
func (o oracleComm) Advance(d int64) { o.c.Advance(d) }
func (o oracleComm) Send(dst, tag int, bytes int64, data []byte) {
	o.c.Send(dst, tag, bytes, data)
}
func (o oracleComm) Recv(src, tag int) []byte { return o.c.Recv(src, tag) }
func (o oracleComm) Isend(dst, tag int, bytes int64, data []byte) Waiter {
	return o.c.Isend(dst, tag, bytes, data)
}
func (o oracleComm) Irecv(src, tag int) Waiter { return o.c.Irecv(src, tag) }
func (o oracleComm) SendRecv(dst, src, tag int, bytes int64, data []byte) []byte {
	return o.c.SendRecv(dst, src, tag, bytes, data)
}
func (o oracleComm) Barrier()                    { o.c.Barrier() }
func (o oracleComm) Allreduce(bytes int64)       { o.c.Allreduce(bytes) }
func (o oracleComm) Bcast(bytes int64)           { o.c.Bcast(bytes) }
func (o oracleComm) Reduce(bytes int64)          { o.c.Reduce(bytes) }
func (o oracleComm) Alltoall(bytesPerPair int64) { o.c.Alltoall(bytesPerPair) }
