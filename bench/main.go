// Command bench is the repository benchmark: three workloads that time
// the paper's evaluation, wide simulated worlds and a served request mix,
// with an untraced run for end-to-end metrics and a traced run for
// per-layer metrics. See README.md; run it from the repository root:
//
//	bash bench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh                  # every workload, end-to-end table
//	bash bench/run.sh -trace 1         # every workload, per-layer table
//	bash bench/run.sh -repeat 10       # A/A spread report
//	bash bench/run.sh -update-golden   # rewrite bench/golden.json
//
// Each workload runs in a fresh child process of this binary, so it gets
// its own heap and its own memory numbers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runTimeout bounds one workload run, set-up children included.
const runTimeout = 170 * time.Second

// setupRuns is how many times one untraced run sets its workload up: the
// reported setup_s is their median.
const setupRuns = 7

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once and print one JSON result line (default: every workload, as a table)")
		seed    = flag.Uint64("seed", 1, "workload seed: serve-mixed's request population and order")
		seconds = flag.Int("seconds", 30, "measured length: serve-mixed sends for this long; the batch workloads run round(seconds/10) passes, at least 2")
		trace   = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones")
		repeat  = flag.Int("repeat", 0, "A/A mode: run each workload this many times (seeds seed, seed+1, ...) and report each end-to-end metric's median, quartiles and spread")
		update  = flag.Bool("update-golden", false, "recompute every op's output digest and rewrite "+goldenPath)
		child   = flag.String("child", "", "internal: run as a child process in this mode (setup, measure or golden)")
		t0      = flag.Int64("t0", 0, "internal: when the parent started this child, in Unix nanoseconds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o := childOpts{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}

	var err error
	switch {
	case *child != "":
		o.t0 = time.Unix(0, *t0)
		err = childMain(*child, o)
	case *update:
		err = updateGolden(o)
	case *repeat > 0:
		err = repeatRuns(o, *repeat)
	case *name != "":
		err = runContract(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fail(err)
	}
}

// runWorkload runs one workload. Traced, that is one measuring child.
// Untraced, set-up-only children run before and after the measuring one,
// setupRuns in all, and setup_s is their median: set-up is a few
// milliseconds of process start on the batch workloads, and this machine's
// speed for that kind of work shifts from one half-minute to the next.
func runWorkload(o childOpts) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var setups []float64
	setUp := func(n int) error {
		for i := 0; i < n && !o.trace; i++ {
			r, err := spawn(ctx, "setup", o)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
		return nil
	}
	if err := setUp(setupRuns / 2); err != nil {
		return report{}, err
	}
	r, err := spawn(ctx, "measure", o)
	if err != nil {
		return report{}, err
	}
	if err := setUp(setupRuns - 1 - setupRuns/2); err != nil {
		return report{}, err
	}
	if !o.trace {
		r.Metrics["setup_s"] = median(append(setups, r.SetupS))
	}
	for k := range r.Metrics {
		if !defined(k, metricDefs(o.trace)) {
			return report{}, fmt.Errorf("%s reported undeclared metric %s", o.workload, k)
		}
	}
	return r, nil
}

// spawn runs this binary as a child in the given mode and returns the
// report it prints as its last stdout line.
func spawn(ctx context.Context, mode string, o childOpts) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-child", mode, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s %s child: %w", o.workload, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return report{}, fmt.Errorf("%s %s child: bad report: %w", o.workload, mode, err)
	}
	return r, nil
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func defined(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// runContract runs one workload and prints its result as one JSON line:
// correctness, op counts and every metric with its unit.
func runContract(o childOpts) error {
	r, err := runWorkload(o)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range metricDefs(o.trace) {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not report %s", o.workload, d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// runAll runs every workload once and prints a table of its metrics. It
// fails when any op failed.
func runAll(o childOpts) error {
	failed := 0
	for _, w := range workloadList {
		o.workload = w.name
		r, err := runWorkload(o)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d ops, %d failed\n", w.name, r.Attempted, r.Failed)
		for _, d := range metricDefs(o.trace) {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
		}
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// repeatRuns is the A/A mode: n untraced runs of each workload in fresh
// children, seeds o.seed .. o.seed+n-1. For each end-to-end metric it
// prints the median, the quartiles and the spread (Q3-Q1)/median, and
// flags a spread above the metric's bound (set-up time too, although its
// bound is not meant for run-to-run spread).
func repeatRuns(o childOpts, n int) error {
	workloads := workloadList
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		workloads = []workload{w}
	}
	o.trace = false
	flagged, failed := 0, 0
	fmt.Printf("%-12s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			run := o
			run.workload, run.seed = w.name, o.seed+uint64(i)
			r, err := runWorkload(run)
			if err != nil {
				return err
			}
			failed += r.Failed
			for k, v := range r.Metrics {
				values[k] = append(values[k], v)
			}
		}
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[d.name])
			spread := (q3 - q1) / med
			mark := ""
			if spread > d.bound {
				mark = "  FLAG: spread above bound"
				flagged++
			}
			fmt.Printf("%-12s %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n", w.name, d.name, med, q1, q3, 100*spread, 100*d.bound, mark)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d ops failed", failed)
	case flagged > 0:
		return fmt.Errorf("%d metric spreads above their bounds", flagged)
	}
	return nil
}

// updateGolden recomputes every workload's op digests and rewrites the
// golden file.
func updateGolden(o childOpts) error {
	g := map[string]map[string]string{}
	for _, w := range workloadList {
		o.workload = w.name
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		r, err := spawn(ctx, "golden", o)
		cancel()
		if err != nil {
			return err
		}
		if len(r.Golden) == 0 {
			return errors.New(w.name + ": no digests")
		}
		g[w.name] = r.Golden
		fmt.Fprintf(os.Stderr, "%s: %d digests\n", w.name, len(r.Golden))
	}
	return writeGolden(g)
}
