package mpisim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unimem/internal/machine"
)

// TestUnboundedInFlight is the regression test for the retired engine's
// latent SendRecv deadlock: its 1024-entry mailboxes made "non-blocking"
// sends block once a pair had 1024 messages in flight. The event core's
// sparse queues are unbounded, so both ranks can push a burst far past
// that limit before either receives.
func TestUnboundedInFlight(t *testing.T) {
	const burst = 1500 // > the old engine's 1024-slot mailbox
	w := NewWorld(2, machine.PlatformA())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			for i := 0; i < burst; i++ {
				c.Send(peer, i, 8, nil)
			}
			for i := 0; i < burst; i++ {
				c.Recv(peer, i)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("burst of 1500 in-flight messages per pair deadlocked")
	}
}

// TestSendRecvOpposingBurstNoDeadlock pins the SendRecv doc claim with
// pressure the old engine could not survive: opposing pairs exchanging
// thousands of messages.
func TestSendRecvOpposingBurstNoDeadlock(t *testing.T) {
	w := NewWorld(4, machine.PlatformA())
	w.Run(func(c *Comm) {
		p := c.Size()
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		for i := 0; i < 2000; i++ {
			c.SendRecv(right, left, 9, 256, nil)
		}
	})
}

// TestPostAbortOpsPanicSentinel: after Abort, operations must not return
// nil payloads that could be mistaken for genuinely empty messages — they
// panic with the sentinel IsAbort recognizes, and Run swallows it.
func TestPostAbortOpsPanicSentinel(t *testing.T) {
	w := NewWorld(1, machine.PlatformA())
	var sawSentinel atomic.Bool
	w.Run(func(c *Comm) {
		w.Abort()
		defer func() {
			sawSentinel.Store(IsAbort(recover()))
		}()
		c.Recv(0, 1) // must panic, not return nil
	})
	if !sawSentinel.Load() {
		t.Fatal("post-abort Recv did not panic with the abort sentinel")
	}
	if !w.Aborted() {
		t.Fatal("world should report aborted")
	}
}

// TestAbortMidCollective4kPromptness parks 4095 of 4096 ranks inside a
// Barrier, then has the last rank abort the world: every parked rank must
// wake and unwind promptly, and Run must return instead of hanging.
func TestAbortMidCollective4kPromptness(t *testing.T) {
	const p = 4096
	w := NewWorld(p, machine.PlatformA())
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				// Block once so every other rank gets scheduled first and
				// parks inside the Barrier below.
				c.Recv(1, 99)
				w.Abort()
				// Any further MPI operation must unwind with the sentinel
				// (Run swallows it).
				c.Barrier()
				t.Error("post-abort Barrier returned instead of unwinding")
				return
			}
			if c.Rank() == 1 {
				c.Send(0, 99, 8, nil)
			}
			c.Barrier() // never completes: rank 0 aborts instead of joining
			t.Errorf("rank %d: aborted Barrier completed", c.Rank())
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("abort of a 4096-rank world mid-collective did not unwind within 30s")
	}
	if !w.Aborted() {
		t.Fatal("world should report aborted")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mid-collective abort at 4k ranks took %v to unwind", elapsed)
	}
}

// TestAbortCleanupIsSingleOwner: ranks that recover the abort sentinel
// to clean up run one at a time, so their cleanups may share plain state.
// Rank 0 aborts after every peer has parked in a Barrier; every rank's
// cleanup appends to an unsynchronised slice, which must end up holding
// each rank exactly once (and -race must stay quiet).
func TestAbortCleanupIsSingleOwner(t *testing.T) {
	const p = 64
	w := NewWorld(p, machine.PlatformA())
	var cleaned []int
	w.Run(func(c *Comm) {
		defer func() {
			if r := recover(); IsAbort(r) {
				cleaned = append(cleaned, c.Rank())
			} else if r != nil {
				panic(r)
			}
		}()
		switch c.Rank() {
		case 0:
			c.Recv(1, 99) // wakes only after every peer has parked
			w.Abort()
		case 1:
			c.Send(0, 99, 8, nil)
		}
		c.Barrier()
	})
	if len(cleaned) != p {
		t.Fatalf("recorded %d cleanups, want %d", len(cleaned), p)
	}
	seen := make([]bool, p)
	for _, r := range cleaned {
		if seen[r] {
			t.Fatalf("rank %d cleaned up twice", r)
		}
		seen[r] = true
	}
}

// runPanic runs body on w and returns the value Run panicked with (nil if
// it returned), after checking that no rank goroutine outlives Run.
func runPanic(t *testing.T, w *World, body func(c *Comm)) (p interface{}) {
	t.Helper()
	base := runtime.NumGoroutine()
	func() {
		defer func() { p = recover() }()
		w.Run(body)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Run returned, want %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	return p
}

// TestDeadlockDetected: when every live rank is blocked on a peer, Run
// panics with a diagnostic instead of hanging (the old engine hung), and
// every rank goroutine unwinds.
func TestDeadlockDetected(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want string
	}{
		{2, "all 2 live ranks blocked (2 in Recv"},
		{4096, "all 4096 live ranks blocked (4096 in Recv"},
	} {
		p := runPanic(t, NewWorld(tc.p, machine.PlatformA()), func(c *Comm) {
			c.Recv((c.Rank()+1)%c.Size(), 7) // every rank waits; nobody sends
		})
		msg, ok := p.(string)
		if !ok || !strings.Contains(msg, "mpisim: deadlock") || !strings.Contains(msg, tc.want) {
			t.Fatalf("%d ranks: panic %v, want a deadlock diagnostic containing %q", tc.p, p, tc.want)
		}
	}
}

// TestRunTwicePanics: worlds are single-use.
func TestRunTwicePanics(t *testing.T) {
	w := NewWorld(1, machine.PlatformA())
	w.Run(func(c *Comm) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run should panic")
		}
	}()
	w.Run(func(c *Comm) {})
}

// TestManyRanks10k: the scale target — a 10k-rank world with skewed
// clocks and collectives completes. (The retired engine's ranks² mailbox
// matrix would need ~5 TB for this world.)
func TestManyRanks10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank world in -short mode")
	}
	const p = 10_000
	w := NewWorld(p, machine.PlatformA())
	var total int64
	w.Run(func(c *Comm) {
		c.Advance(int64(c.Rank()))
		c.Allreduce(8)
		c.SendRecv((c.Rank()+1)%p, (c.Rank()-1+p)%p, 3, 512, nil)
		c.Barrier()
		atomic.AddInt64(&total, 1)
	})
	if total != p {
		t.Fatalf("ran %d ranks, want %d", total, p)
	}
}
