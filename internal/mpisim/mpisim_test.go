package mpisim

import (
	"sync"
	"sync/atomic"
	"testing"

	"unimem/internal/machine"
)

func world(p int) *World { return NewWorld(p, machine.PlatformA()) }

func TestSendRecvPayload(t *testing.T) {
	w := world(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, 1024, []byte("hello"))
		case 1:
			got := c.Recv(0, 5)
			if string(got) != "hello" {
				t.Errorf("payload %q", got)
			}
		}
	})
}

func TestRecvClockSynchronizes(t *testing.T) {
	w := world(2)
	var recvClock int64
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Advance(1e9) // sender is 1s ahead
			c.Send(1, 1, 1<<20, nil)
		case 1:
			c.Recv(0, 1)
			recvClock = c.Clock()
		}
	})
	// Receiver must land after the sender's departure plus transfer time.
	min := int64(1e9) + int64(world(2).Mach.MsgTimeNS(1<<20))
	if recvClock < min {
		t.Fatalf("receiver clock %d, want >= %d", recvClock, min)
	}
}

func TestTagReordering(t *testing.T) {
	w := world(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, 8, []byte("first"))
			c.Send(1, 2, 8, []byte("second"))
		case 1:
			// Receive out of tag order: the reorder buffer must hold tag 1.
			if got := string(c.Recv(0, 2)); got != "second" {
				t.Errorf("tag 2 payload %q", got)
			}
			if got := string(c.Recv(0, 1)); got != "first" {
				t.Errorf("tag 1 payload %q", got)
			}
		}
	})
}

func TestBarrierAlignsClocks(t *testing.T) {
	w := world(4)
	var clocks [4]int64
	w.Run(func(c *Comm) {
		c.Advance(int64(c.Rank()) * 1e6) // staggered arrival
		c.Barrier()
		clocks[c.Rank()] = c.Clock()
	})
	for r := 1; r < 4; r++ {
		if clocks[r] != clocks[0] {
			t.Fatalf("clocks diverged after barrier: %v", clocks)
		}
	}
	if clocks[0] < 3e6 {
		t.Fatalf("barrier exited before slowest rank arrived: %v", clocks[0])
	}
}

func TestAllreduceCost(t *testing.T) {
	w := world(8)
	var clock int64
	w.Run(func(c *Comm) {
		c.Allreduce(1024)
		if c.Rank() == 0 {
			clock = c.Clock()
		}
	})
	// 2*log2(8)=6 message times.
	want := int64(6 * w.Mach.MsgTimeNS(1024))
	if clock != want {
		t.Fatalf("allreduce cost %d, want %d", clock, want)
	}
}

func TestCollectivesRepeat(t *testing.T) {
	// The generation-based rendezvous must survive many rounds.
	w := world(4)
	w.Run(func(c *Comm) {
		for i := 0; i < 100; i++ {
			c.Allreduce(8)
			c.Barrier()
			c.Bcast(64)
			c.Reduce(64)
			c.Alltoall(256)
		}
	})
}

func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	w := world(4)
	w.Run(func(c *Comm) {
		p := c.Size()
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		for i := 0; i < 50; i++ {
			c.SendRecv(right, left, 9, 4096, nil)
		}
	})
}

func TestNonBlocking(t *testing.T) {
	w := world(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 3, 64, []byte("nb"))
			req.Wait()
		case 1:
			req := c.Irecv(0, 3)
			if got := string(req.Wait()); got != "nb" {
				t.Errorf("irecv payload %q", got)
			}
		}
	})
}

func TestPMPIHookFires(t *testing.T) {
	w := world(2)
	var calls int64
	w.Run(func(c *Comm) {
		c.SetHook(HookFunc(func(rank int, op string) {
			atomic.AddInt64(&calls, 1)
		}))
		if c.Rank() == 0 {
			c.Send(1, 1, 8, nil)
		} else {
			c.Recv(0, 1)
		}
		c.Barrier()
	})
	// Send + Recv + 2x Barrier = 4 hook invocations.
	if calls != 4 {
		t.Fatalf("hook fired %d times, want 4", calls)
	}
}

func TestIsendDoesNotFireHook(t *testing.T) {
	// Per §2.1, a non-blocking call is not a phase boundary; its Wait is.
	w := world(2)
	var ops []string
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			c.Recv(0, 1)
			return
		}
		c.SetHook(HookFunc(func(rank int, op string) {
			mu.Lock()
			ops = append(ops, op)
			mu.Unlock()
		}))
		req := c.Isend(1, 1, 8, nil)
		req.Wait()
	})
	if len(ops) != 1 || ops[0] != "Wait" {
		t.Fatalf("ops = %v, want [Wait]", ops)
	}
}

func TestCommNSAccumulates(t *testing.T) {
	w := world(2)
	var commNS int64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 1<<20, nil)
		} else {
			c.Recv(0, 1)
			commNS = c.CommNS
		}
	})
	if commNS <= 0 {
		t.Fatal("receiver should accumulate communication wait time")
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	w := world(1)
	w.Run(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("negative advance should panic")
			}
		}()
		c.Advance(-1)
	})
}

// TestRankPanicPropagates: a real panic in one rank poisons the world,
// unwinds every parked peer and propagates out of Run with the rank id.
func TestRankPanicPropagates(t *testing.T) {
	for _, tc := range []struct {
		p    int
		body func(c *Comm)
		want string
	}{
		{2, func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
		}, "rank 1: boom"},
		{4096, func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Recv(1, 99) // wakes only after every peer has parked
				panic("boom")
			case 1:
				c.Send(0, 99, 8, nil)
			}
			c.Barrier()
		}, "rank 0: boom"},
	} {
		if v := runPanic(t, world(tc.p), tc.body); v != tc.want {
			t.Fatalf("%d ranks: Run panicked with %v, want %q", tc.p, v, tc.want)
		}
	}
}

func TestManyRanks(t *testing.T) {
	w := world(64)
	var total int64
	w.Run(func(c *Comm) {
		c.Advance(int64(c.Rank()))
		c.Allreduce(8)
		atomic.AddInt64(&total, 1)
	})
	if total != 64 {
		t.Fatalf("ran %d ranks", total)
	}
}
