package unimem_test

import (
	"context"
	"fmt"

	"unimem"
)

// Example demonstrates the library's end-to-end flow: describe an
// iterative application, run it on an NVM-based heterogeneous memory
// system under the Unimem runtime, and compare against the DRAM-only and
// NVM-only configurations. Results are deterministic per seed.
func Example() {
	// A platform whose NVM delivers half of DRAM's bandwidth, with a
	// 128 MiB DRAM tier.
	m := unimem.PlatformA().
		WithNVMBandwidthFraction(0.5).
		WithDRAMCapacity(128 << 20)

	// Two 96 MiB objects: only one fits in DRAM. The streamed field is
	// the profitable one; the checkpoint is touched once per iteration.
	app := unimem.NewApp("example", 2, 25)
	app.Object("field", 96<<20, unimem.WithHint(2e6))
	app.Object("checkpoint", 96<<20)
	app.ComputePhase("sweep", 25e6, unimem.Stream("field", 2e6, 0.5))
	app.ComputePhase("snapshot", 2e6, unimem.Stream("checkpoint", 4e4, 1))
	app.CommPhase("residual", unimem.Allreduce, 64, 1e6)
	w := app.Build()

	sess := unimem.New(m)
	ctx := context.Background()
	dram, _ := sess.Run(ctx, w, unimem.DRAMOnly())
	nvm, _ := sess.Run(ctx, w, unimem.SlowestOnly())
	uni, _ := sess.Run(ctx, w, unimem.Unimem())

	fmt.Printf("nvm-only is %.1fx of dram-only\n",
		float64(nvm.Result.TimeNS)/float64(dram.Result.TimeNS))
	fmt.Printf("unimem   is %.1fx of dram-only\n",
		float64(uni.Result.TimeNS)/float64(dram.Result.TimeNS))
	fmt.Printf("placement: %v\n", uni.Runtimes[0].DRAMResidents())
	// Output:
	// nvm-only is 1.6x of dram-only
	// unimem   is 1.0x of dram-only
	// placement: [field]
}
