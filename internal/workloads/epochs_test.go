package workloads

import (
	"fmt"
	"reflect"
	"testing"

	"unimem/internal/phase"
)

// TestComputeContentEpochs pins the exact change-point derivation the fast
// path bounds its windows by: an epoch starts at every iteration whose
// reference list or scheduled communication volume differs from the
// previous iteration's, in any phase, and at no other iteration.
func TestComputeContentEpochs(t *testing.T) {
	const iters = 12
	ref := func(obj string) []phase.Ref { return []phase.Ref{{Object: obj, Accesses: 100, ReadFrac: 0.5}} }
	static := func(obj string) func(int) []phase.Ref {
		refs := ref(obj)
		return func(int) []phase.Ref { return refs }
	}
	// switchAt returns fresh slices on every call, so equality must be by
	// value, not by slice identity.
	switchAt := func(k int, before, after string) func(int) []phase.Ref {
		return func(iter int) []phase.Ref {
			if iter >= k {
				return ref(after)
			}
			return ref(before)
		}
	}
	cases := []struct {
		name   string
		phases []Phase
		want   []int
	}{
		{"stationary", []Phase{
			{Name: "p", Refs: static("a"), CommBytes: 64, Comm: CommAllreduce},
			{Name: "q", Refs: switchAt(0, "x", "b")},
		}, []int{}},
		{"refs change at k", []Phase{
			{Name: "p", Refs: switchAt(5, "a", "b")},
		}, []int{5}},
		{"comm schedule only", []Phase{
			{Name: "p", Refs: static("a"), Comm: CommHalo, CommBytes: 1 << 10,
				CommSchedule: []ScaleWindow{{From: 7, Scale: 4}}},
		}, []int{7}},
		{"A then B then A", []Phase{
			{Name: "p", Refs: func(iter int) []phase.Ref {
				if iter >= 3 && iter < 8 {
					return ref("b")
				}
				return ref("a")
			}},
		}, []int{3, 8}},
		{"refs in a reused buffer", []Phase{
			{Name: "p", Refs: func() func(int) []phase.Ref {
				buf := make([]phase.Ref, 1)
				return func(iter int) []phase.Ref {
					buf[0] = ref("a")[0]
					if iter >= 9 {
						buf[0].Accesses++
					}
					return buf
				}
			}()},
		}, []int{9}},
		{"two phases change together", []Phase{
			{Name: "p", Refs: switchAt(4, "a", "b")},
			{Name: "q", Refs: static("c"), CommBytes: 8, Comm: CommBcast,
				CommSchedule: []ScaleWindow{{From: 4, To: 6, Scale: 2}}},
		}, []int{4, 6}},
	}
	for _, c := range cases {
		w := &Workload{Name: c.name, Iterations: iters, Phases: c.phases}
		before := fmt.Sprint(*w)
		got := w.ComputeContentEpochs()
		if got == nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: epochs = %#v, want %#v", c.name, got, c.want)
		}
		if after := fmt.Sprint(*w); after != before {
			t.Errorf("%s: ComputeContentEpochs mutated the workload", c.name)
		}
	}
}
