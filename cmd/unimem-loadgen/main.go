// Command unimem-loadgen replays scenario-generator fleets against one
// unimem-serve daemon at a configured rate and reports the latency
// distribution and cache hit rate.
//
// Pacing is open-loop (see internal/loadgen): every request's fire time is
// fixed up front and latency is charged from that schedule, so a stalled
// server shows up as tail latency rather than silently slowing the run.
//
// Usage:
//
//	unimem-loadgen -target http://localhost:8080 -qps 200 -duration 10s
//	unimem-loadgen -target http://localhost:8080 -qps 500 -requests 2000 -json report.json
//	unimem-loadgen -target http://localhost:8080 -archetype stable -scenarios 4 -strategy xmem -qps 100 -duration 5s
//
// The human-readable summary goes to stderr; -json writes the full report
// document ("-" for stdout). The process exits 1 when any request failed,
// so CI can assert a zero-error replay; -allow-errors downgrades that to
// a report field.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unimem/internal/loadgen"
)

func main() {
	var (
		target      = flag.String("target", "http://localhost:8080", "daemon base URL")
		qps         = flag.Float64("qps", 100, "aggregate open-loop request rate")
		duration    = flag.Duration("duration", 0, "run length (ignored when -requests is set)")
		requests    = flag.Int("requests", 0, "total request count (0: derive from -qps x -duration)")
		workers     = flag.Int("workers", 16, "sender-pool width (bounds in-flight requests, not rate)")
		archetype   = flag.String("archetype", "", "restrict generation to one scenario archetype (default: all)")
		scenarios   = flag.Int("scenarios", 4, "distinct scenarios per archetype; requests cycle over the population")
		seed        = flag.Uint64("seed", 1, "deterministic scenario-generation seed")
		strategy    = flag.String("strategy", "xmem", "placement strategy per request (cached strategies can hit)")
		ranks       = flag.Int("ranks", 0, "override each scenario's world size (0: as generated)")
		platform    = flag.String("platform", "a", "platform name sent with each request")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		jsonOut     = flag.String("json", "", "write the report as JSON to this file ('-' for stdout)")
		allowErrors = flag.Bool("allow-errors", false, "exit 0 even when requests failed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Target:    *target,
		QPS:       *qps,
		Requests:  *requests,
		Duration:  *duration,
		Workers:   *workers,
		Archetype: *archetype,
		Scenarios: *scenarios,
		Seed:      *seed,
		Strategy:  *strategy,
		Ranks:     *ranks,
		Platform:  *platform,
		Timeout:   *timeout,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *jsonOut != "" {
		f := os.Stdout
		if *jsonOut != "-" {
			f, err = os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if rep.Errors > 0 && !*allowErrors {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
}
