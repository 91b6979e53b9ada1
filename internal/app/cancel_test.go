package app_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// TestRunCtxDeadContext: an already-cancelled context returns immediately
// without spawning a world.
func TestRunCtxDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := workloads.NewCG("A", 2)
	m := machine.PlatformA()
	res, err := app.RunCtx(ctx, w, m, app.Options{}, app.NewStaticFactory("s", nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
}

// TestRunCtxCancelMidRun cancels a long run shortly after it starts: the
// simulated world must abort — ranks parked in collectives included —
// and RunCtx must return the context error promptly. The Unimem
// runtime's helper thread is a virtual timeline on the rank goroutine, so
// an aborted rank leaves nothing running behind it.
func TestRunCtxCancelMidRun(t *testing.T) {
	w := workloads.NewCG("C", 4)
	cp := *w
	cp.Iterations = 100000 // minutes of simulation if not aborted
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := app.RunCtx(ctx, &cp, m, app.Options{}, core.Factory(core.DefaultConfig()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v to unwind", elapsed)
	}
}

// TestRunCtxBackgroundUnchanged: a background context is the plain Run
// path — results must match Run bit for bit.
func TestRunCtxBackgroundUnchanged(t *testing.T) {
	w := workloads.NewCG("A", 2)
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	a, err := app.Run(w, m, app.Options{Seed: 7}, app.NewStaticFactory("s", nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.RunCtx(context.Background(), w, m, app.Options{Seed: 7}, app.NewStaticFactory("s", nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeNS != b.TimeNS || a.Ranks[0].CommNS != b.Ranks[0].CommNS {
		t.Fatalf("RunCtx(background) diverged from Run: %d vs %d", a.TimeNS, b.TimeNS)
	}
}
