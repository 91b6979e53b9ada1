// Command unimem-bench regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the paper reports,
// normalized to DRAM-only execution time.
//
// Rendered tables go to stdout; progress, timing and the run-cache summary
// go to stderr, so stdout is byte-identical between serial and parallel
// runs of the same experiments.
//
// Usage:
//
//	unimem-bench -list
//	unimem-bench -exp fig9
//	unimem-bench -exp all -class C -ranks 4
//	unimem-bench -exp all -quick -parallel
//	unimem-bench -exp fig9,table4 -workers 8 -json results.json
//	unimem-bench -exp table4 -csv out.csv
//	unimem-bench -exp scenariofleet -quick -fleet 8 -parallel
//	unimem-bench -exp all -parallel -timeout 10m
//
// -timeout bounds the whole run: on expiry, in-flight simulated worlds
// abort, the partial cache statistics are printed to stderr, and the
// process exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"unimem/internal/exp"
)

// summary is the machine-readable run report of the JSON output mode.
type summary struct {
	Experiments []string `json:"experiments"`
	Class       string   `json:"class"`
	Ranks       int      `json:"ranks"`
	Seed        uint64   `json:"seed"`
	Quick       bool     `json:"quick"`
	Workers     int      `json:"workers"`
	CacheHits   int64    `json:"cache_hits"`
	CacheMisses int64    `json:"cache_misses"`
	CacheRuns   int      `json:"cache_entries"`
}

// document is the top-level JSON output: every regenerated table plus the
// run summary.
type document struct {
	Tables  []*exp.Table `json:"tables"`
	Summary summary      `json:"summary"`
}

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id (see -list), comma-separated list, or 'all'")
		class    = flag.String("class", "C", "NPB class for the basic tests (A/B/C/D)")
		ranks    = flag.Int("ranks", 4, "MPI world size")
		seed     = flag.Uint64("seed", 0xD07, "deterministic seed")
		quick    = flag.Bool("quick", false, "cap iteration counts (fast, less faithful)")
		fleet    = flag.Int("fleet", 0, "scenarios per archetype for -exp scenariofleet (0: default 4)")
		parallel = flag.Bool("parallel", false, "fan experiment cells across GOMAXPROCS workers")
		workersN = flag.Int("workers", 0, "worker-pool width (overrides -parallel; 1 = serial)")
		csv      = flag.String("csv", "", "also write results as CSV to this file")
		jsonOut  = flag.String("json", "", "write results as JSON to this file ('-' for stdout, suppressing tables)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration (0: no limit)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	order, reg := exp.Registry()
	if *list {
		for _, id := range order {
			fmt.Println(id)
		}
		return
	}

	workers := 1
	switch {
	case *workersN > 0:
		workers = *workersN
	case *parallel:
		workers = runtime.GOMAXPROCS(0)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s := exp.NewSuite()
	s.Class = *class
	s.Ranks = *ranks
	s.Seed = *seed
	s.Quick = *quick
	s.Fleet = *fleet
	s.Workers = workers
	s.Ctx = ctx

	var ids []string
	if *expID == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*expID, ",") {
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	var csvOut *os.File
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvOut = f
	}

	// Open the JSON destination up front so a bad path fails before the
	// experiments run, like -csv does.
	jsonFile := os.Stdout
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		jsonFile = f
	}

	renderTables := *jsonOut != "-"
	var tables []*exp.Table
	start := time.Now()
	for _, id := range ids {
		expStart := time.Now()
		t, err := reg[id](s)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				stats := s.CacheStats()
				fmt.Fprintf(os.Stderr, "%s: timed out after %v (%v); partial cache: %d hits, %d misses (%d runs memoized)\n",
					id, *timeout, err, stats.Hits, stats.Misses, stats.Entries)
				os.Exit(3)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tables = append(tables, t)
		if renderTables {
			t.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "  (%s regenerated in %v)\n", id, time.Since(expStart).Round(time.Millisecond))
		if csvOut != nil {
			fmt.Fprintf(csvOut, "# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(csvOut)
		}
	}

	stats := s.CacheStats()
	fmt.Fprintf(os.Stderr, "%d experiment(s) in %v; workers=%d; baseline cache: %d hits, %d misses (%d runs memoized)\n",
		len(ids), time.Since(start).Round(time.Millisecond),
		workers, stats.Hits, stats.Misses, stats.Entries)

	if *jsonOut != "" {
		doc := document{
			Tables: tables,
			Summary: summary{
				Experiments: ids,
				Class:       *class,
				Ranks:       *ranks,
				Seed:        *seed,
				Quick:       *quick,
				Workers:     workers,
				CacheHits:   stats.Hits,
				CacheMisses: stats.Misses,
				CacheRuns:   stats.Entries,
			},
		}
		enc := json.NewEncoder(jsonFile)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
