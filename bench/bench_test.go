package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0.5, false}, // 9 beyond the median
		{20, 0.5, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{32, tailP(32), true},
		{4000, tailP(4000), true},
	} {
		v, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %g) error %v, want ok=%v", c.n, c.p, err, c.ok)
		}
		if err == nil && v != float64(int(c.p*float64(c.n)+0.999999)) {
			t.Errorf("percentile(%d samples, %g) = %g, not the nearest-rank sample", c.n, c.p, v)
		}
	}
	if p := tailP(4000); p != 0.99 {
		t.Errorf("tailP(4000) = %g, want the p99 cap", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0].
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{5, 1}); q1 != 0 || med != 3 || q3 != 6 {
		t.Errorf("quartiles(5, 1) = %g %g %g", q1, med, q3)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"memsys", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "unimem/internal/memsys.(*Heap).Alloc", "unimem/internal/app.RunCtx.func2", benchPkg + "paperSuite.pass"}},
		{"mover", []string{"runtime.memmove", "unimem/internal/mover.(*Mover).applyLocked", "unimem/internal/core.(*Runtime).PhaseBegin"}},
		{"workloads", []string{"unimem/internal/xrand.(*Rand).Uint64", "unimem/internal/workloads.(*Workload).Traffic"}},
		{"mpisim", []string{"runtime.chanrecv", "unimem/internal/mpisim/oracle.(*World).Run"}},
		{"serve", []string{"encoding/json.Unmarshal", "unimem/internal/serve.(*Server).handleRun", "net/http.(*conn).serve"}},
		{"go.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}},
		{"go.runtime", []string{"runtime.futex", "runtime.notesleep", "runtime.schedule", "runtime.mcall"}},
		{"go.runtime", []string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}},
		{"bench", []string{"runtime.memmove", "net/http.(*Client).Do", benchPkg + "(*serveMixed).post"}},
		{"go.runtime", []string{"unimem.(*Session).Run", "runtime.goexit"}},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// spin burns CPU in a frame the profile decoder must find.
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeProfileFindsFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Fatalf("sample %d has weight %d", i, weights[i])
		}
		for _, fn := range st {
			found = found || fn == benchPkg+"spin"
		}
	}
	if !found {
		t.Fatalf("no sample in %sspin among %d samples: %v", benchPkg, len(stacks), stacks)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["bench"] <= 0.5 {
		t.Errorf("bench share %g, want most of a profile that spins in the test", shares["bench"])
	}
}

func TestTamperedGoldenFailsOps(t *testing.T) {
	ops := []opResult{{key: "fig9", digest: "aaaa"}, {key: "fig10", digest: "bbbb"}}
	golden := map[string]string{"fig9": "aaaa", "fig10": "bbbb"}
	if n := checkOps(ops, golden); n != 0 {
		t.Fatalf("matching golden: %d failed ops", n)
	}
	golden["fig10"] = "cccc"
	if n := checkOps(ops, golden); n != 1 {
		t.Errorf("tampered golden: %d failed ops, want 1", n)
	}
	delete(golden, "fig10")
	if n := checkOps(ops, golden); n != 1 {
		t.Errorf("missing golden entry: %d failed ops, want 1", n)
	}
	golden["fig10"] = "bbbb"
	ops[0].err = errors.New("run failed")
	if n := checkOps(ops, golden); n != 1 {
		t.Errorf("op error: %d failed ops, want 1", n)
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	// One sender, ops due every 10ms; op 0 stalls for 50ms, so op 1 (due
	// at 10ms) cannot be sent before 50ms. Its latency must include that
	// wait, not start when it was finally sent.
	lat, late := openLoop(3, time.Now(), 10*time.Millisecond, 1, func(i int) {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	})
	if late[1] < 40*time.Millisecond {
		t.Errorf("op 1 sent %v late, want at least 40ms", late[1])
	}
	for i := range lat {
		if lat[i] < late[i] {
			t.Errorf("op %d latency %v is less than its send delay %v", i, lat[i], late[i])
		}
	}
	if lat[1] < 40*time.Millisecond {
		t.Errorf("op 1 latency %v, want at least the 40ms it waited", lat[1])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadList))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadList[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, program %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if (g.Bound != nil) != (d.bound > 0) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %g", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
