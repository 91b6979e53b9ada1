package main

import "unimem/internal/exp"

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds (TestBenchmarkJSON
// keeps the two in step).
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	bound float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced run. An "op" is one registry runner
// (paper-suite), one Session.Run (wide-world) or one HTTP request
// (serve-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"rss_p90_mb", "MiB", "lower", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's metrics, named <layer>.<metric>. Every
// workload reports all of them; a layer a workload does not exercise, or
// whose counters the benchmark cannot see on that workload, reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	for _, l := range cpuLayers {
		add(l+".cpu_share", "frac", "lower")
	}
	order, _ := exp.Registry()
	for _, id := range order {
		add("exp."+id+"_share", "frac", "lower")
	}
	add("exp.cache_hits", "count", "higher")
	add("exp.cache_misses", "count", "lower")
	add("exp.cache_hit_frac", "frac", "higher")
	add("exp.unimem_vs_dram", "ratio", "lower")
	for _, n := range []string{"core.setup", "core.phase_begin", "core.phase_end", "core.loop_end", "app.static_setup", "app.harness"} {
		add(n+"_share", "frac", "lower")
	}
	add("mpisim.worlds", "count", "lower")
	add("mpisim.events", "count", "lower")
	add("mpisim.collectives", "count", "lower")
	add("mpisim.inbox_scan_len", "msgs", "lower")
	add("app.fastpath.analytic_frac", "frac", "higher")
	add("app.fastpath.fastforwards", "count", "higher")
	add("mover.migrations", "count", "lower")
	add("mover.bytes_migrated", "bytes", "lower")
	add("core.decisions", "count", "lower")
	add("serve.handler_hit_share", "frac", "lower")
	add("serve.handler_miss_share", "frac", "lower")
	add("go.alloc_bytes", "bytes", "lower")
	add("go.alloc_objects", "count", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_cpu_s", "s", "lower")
	add("bench.trace_overhead_wall_frac", "frac", "lower")
	add("bench.trace_overhead_cpu_frac", "frac", "lower")
	add("bench.late_send_frac", "frac", "lower")
	return out
}()
