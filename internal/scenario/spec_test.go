package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// builtins returns every built-in workload: the paper's evaluation suite
// (six NPB kernels + Nek5000) plus the calibration microbenchmarks.
func builtins() []*workloads.Workload {
	ws := workloads.EvalSuite("C", 4)
	ws = append(ws, workloads.NewSTREAM(4), workloads.NewPointerChase(4))
	return ws
}

// TestRoundTripRefsExact verifies the capture->encode->parse->compile loop
// reproduces every built-in workload's structure and per-iteration
// ground-truth traffic exactly, at the full iteration count.
func TestRoundTripRefsExact(t *testing.T) {
	for _, w := range builtins() {
		spec, err := FromWorkload(w)
		if err != nil {
			t.Fatalf("%s: FromWorkload: %v", w.Name, err)
		}
		data, err := spec.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", w.Name, err)
		}
		parsed, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: Parse: %v", w.Name, err)
		}
		got, err := parsed.Compile()
		if err != nil {
			t.Fatalf("%s: Compile: %v", w.Name, err)
		}
		if got.Name != w.Name || got.Class != w.Class || got.Ranks != w.Ranks ||
			got.Iterations != w.Iterations || got.FootprintFrac != w.FootprintFrac {
			t.Errorf("%s: header mismatch: got %+v", w.Name, got)
		}
		if !reflect.DeepEqual(got.Objects, w.Objects) {
			t.Errorf("%s: objects mismatch\n got %+v\nwant %+v", w.Name, got.Objects, w.Objects)
		}
		if got.SpecDigest == "" {
			t.Errorf("%s: compiled workload has no spec digest", w.Name)
		}
		if len(got.Phases) != len(w.Phases) {
			t.Fatalf("%s: %d phases, want %d", w.Name, len(got.Phases), len(w.Phases))
		}
		for i := range w.Phases {
			a, b := &w.Phases[i], &got.Phases[i]
			if a.Name != b.Name || a.Kind != b.Kind || a.Comm != b.Comm ||
				a.CommBytes != b.CommBytes || a.Flops != b.Flops || a.RankSkew != b.RankSkew {
				t.Errorf("%s phase %d: descriptor mismatch", w.Name, i)
			}
			for iter := 0; iter < w.Iterations; iter++ {
				if !slices.Equal(a.Refs(iter), b.Refs(iter)) {
					t.Fatalf("%s phase %s iter %d: refs mismatch\n got %v\nwant %v",
						w.Name, a.Name, iter, b.Refs(iter), a.Refs(iter))
				}
			}
		}
	}
}

// TestRoundTripRunByteIdentical is the golden gate: Save -> Load -> Run of
// every built-in workload must produce results byte-identical to running
// the original, under the full Unimem runtime (iteration counts trimmed to
// keep the suite fast; Nek5000's trim still spans two drift epochs).
func TestRoundTripRunByteIdentical(t *testing.T) {
	m := machine.PlatformA().WithNVMBandwidthFraction(0.5)
	cfg := core.DefaultConfig()
	for _, w := range builtins() {
		cp := *w
		if cp.Iterations > 14 {
			cp.Iterations = 14
		}
		spec, err := FromWorkload(&cp)
		if err != nil {
			t.Fatalf("%s: FromWorkload: %v", w.Name, err)
		}
		path := t.TempDir() + "/" + w.Name + ".json"
		if err := spec.Save(path); err != nil {
			t.Fatalf("%s: Save: %v", w.Name, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", w.Name, err)
		}
		rt, err := loaded.Compile()
		if err != nil {
			t.Fatalf("%s: Compile: %v", w.Name, err)
		}
		want, err := app.Run(&cp, m, app.Options{}, core.Factory(cfg))
		if err != nil {
			t.Fatalf("%s: run original: %v", w.Name, err)
		}
		got, err := app.Run(rt, m, app.Options{}, core.Factory(cfg))
		if err != nil {
			t.Fatalf("%s: run round-tripped: %v", w.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: round-tripped run differs from original\n got %+v\nwant %+v",
				w.Name, got, want)
		}
	}
}

// TestRoundTripStableEncoding checks capture -> parse -> capture is a
// fixed point: re-encoding a parsed spec yields identical bytes (no
// information is lost or reordered in the schema).
func TestRoundTripStableEncoding(t *testing.T) {
	w := workloads.NewNek5000("C", 4)
	spec, err := FromWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := parsed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("re-encoding a parsed spec changed its bytes")
	}
	if spec.Digest() != parsed.Digest() {
		t.Error("digest changed across encode/parse")
	}
}

// TestMalformedSpecsNameField checks every rejection names the offending
// field.
func TestMalformedSpecsNameField(t *testing.T) {
	base := func() *Spec {
		s, err := Generate(ArchStable, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no ranks", func(s *Spec) { s.Ranks = 0 }, "ranks"},
		{"no iterations", func(s *Spec) { s.Iterations = -1 }, "iterations"},
		{"bad object size", func(s *Spec) { s.Objects[0].SizeBytes = 0 }, "objects[0].size_bytes"},
		{"duplicate object", func(s *Spec) { s.Objects[1].Name = s.Objects[0].Name }, "objects[1].name"},
		{"negative hint", func(s *Spec) { s.Objects[0].RefHint = -1 }, "objects[0].ref_hint"},
		{"unknown ref object", func(s *Spec) { s.Phases[0].Refs[0].Object = "nope" }, "phases[0].refs[0].object"},
		{"bad pattern", func(s *Spec) { s.Phases[0].Refs[0].Pattern = "zigzag" }, "phases[0].refs[0].pattern"},
		{"bad read frac", func(s *Spec) { s.Phases[0].Refs[0].ReadFrac = 1.5 }, "phases[0].refs[0].read_frac"},
		{"bad comm", func(s *Spec) { s.Phases[1].Comm = "allred" }, "phases[1].comm"},
		{"bad skew", func(s *Spec) { s.Phases[0].RankSkew = 2.5 }, "phases[0].rank_skew"},
		{"inverted window", func(s *Spec) {
			s.Phases[0].Refs[0].Schedule = []RefWindow{{From: 6, To: 3, Scale: 1}}
		}, "phases[0].refs[0].schedule[0].to"},
		{"negative window end", func(s *Spec) {
			s.Phases[0].Refs[0].Schedule = []RefWindow{{From: 6, To: -10, Scale: 2}}
		}, "phases[0].refs[0].schedule[0].to"},
		{"negative comm window end", func(s *Spec) {
			s.Phases[1].CommSchedule = []workloads.ScaleWindow{{From: 2, To: -1, Scale: 4}}
		}, "phases[1].comm_schedule[0].to"},
		{"negative epoch end", func(s *Spec) {
			s.Phases[0].Epochs = []EpochSpec{{From: 0, To: -3, Refs: []RefSpec{{
				Object: s.Objects[0].Name, Accesses: 10, ReadFrac: 0.5, Pattern: "stream",
			}}}}
		}, "phases[0].epochs[0].to"},
		{"negative scale", func(s *Spec) {
			s.Phases[0].Refs[0].Schedule = []RefWindow{{From: 0, Scale: -2}}
		}, "phases[0].refs[0].schedule[0].scale"},
		{"schedule inside epoch", func(s *Spec) {
			s.Phases[0].Epochs = []EpochSpec{{From: 0, Refs: []RefSpec{{
				Object: s.Objects[0].Name, Accesses: 10, ReadFrac: 0.5, Pattern: "stream",
				Schedule: []RefWindow{{From: 0, Scale: 1}},
			}}}}
		}, "epochs[0].refs[0].schedule"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validation passed, want error naming %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.want)
		}
	}
}

// TestParseRejectsUnknownFields guards against silently ignored typos.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","ranks":1,"iterations":1,"objets":[]}`)); err == nil {
		t.Error("unknown top-level field accepted")
	} else if !strings.Contains(err.Error(), "objets") {
		t.Errorf("error %q does not name the unknown field", err)
	}
}

// TestScheduleSemantics pins the piecewise-window behaviour: first match
// wins, scale 0 silences, overrides apply, outside windows the base holds.
func TestScheduleSemantics(t *testing.T) {
	rf := 0.25
	p := PhaseSpec{Refs: []RefSpec{{
		Object: "o", Accesses: 1000, ReadFrac: 0.8, Pattern: "stream",
		Schedule: []RefWindow{
			{From: 2, To: 4, Scale: 0},
			{From: 4, To: 6, Scale: 0.5, Pattern: "random", ReadFrac: &rf},
			{From: 5, To: 9, Scale: 3}, // shadowed by the previous window at 5
		},
	}}}
	if got := p.refsAt(0); len(got) != 1 || got[0].Accesses != 1000 || got[0].Pattern != machine.Stream {
		t.Errorf("iter 0: %+v", got)
	}
	if got := p.refsAt(2); len(got) != 0 {
		t.Errorf("iter 2: want silenced, got %+v", got)
	}
	if got := p.refsAt(5); len(got) != 1 || got[0].Accesses != 500 ||
		got[0].Pattern != machine.Random || got[0].ReadFrac != 0.25 {
		t.Errorf("iter 5: first-match window not applied: %+v", got)
	}
	if got := p.refsAt(7); len(got) != 1 || got[0].Accesses != 3000 {
		t.Errorf("iter 7: %+v", got)
	}
	if got := p.refsAt(20); len(got) != 1 || got[0].Accesses != 1000 {
		t.Errorf("iter 20 (outside all windows): %+v", got)
	}
}

// TestCommScheduleAndRankSkewCompile checks the execution-harness hooks
// survive compilation.
func TestCommScheduleAndRankSkewCompile(t *testing.T) {
	s, err := Generate(ArchBurstyComm, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var exchange *workloads.Phase
	for i := range w.Phases {
		if w.Phases[i].Name == "exchange" {
			exchange = &w.Phases[i]
		}
	}
	if exchange == nil || len(exchange.CommSchedule) == 0 {
		t.Fatal("bursty-comm scenario compiled without a comm schedule")
	}
	burst := exchange.CommSchedule[0]
	if got := exchange.CommBytesAt(burst.From); got != int64(float64(exchange.CommBytes)*burst.Scale) {
		t.Errorf("CommBytesAt(%d) = %d, want %gx base", burst.From, got, burst.Scale)
	}
	if got := exchange.CommBytesAt(0); got != exchange.CommBytes {
		t.Errorf("CommBytesAt(0) = %d, want base %d", got, exchange.CommBytes)
	}

	li, err := Generate(ArchLoadImbalance, 3)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := li.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sweep := &lw.Phases[0]
	if sweep.RankSkew <= 0 {
		t.Fatal("load-imbalance scenario compiled without rank skew")
	}
	lo, hi := sweep.RankScale(0, 4), sweep.RankScale(3, 4)
	if !(lo < 1 && hi > 1) {
		t.Errorf("rank scale not a ramp: rank0=%g rank3=%g", lo, hi)
	}
	if sum := sweep.RankScale(0, 4) + sweep.RankScale(1, 4) + sweep.RankScale(2, 4) + sweep.RankScale(3, 4); sum < 3.999 || sum > 4.001 {
		t.Errorf("rank scales do not average to 1: sum=%g", sum)
	}
}
