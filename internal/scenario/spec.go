// Package scenario is the declarative workload layer: a JSON schema that
// describes a phase-structured iterative MPI application — objects, phases,
// communication, static hints, and piecewise per-iteration traffic
// schedules — plus a deterministic synthetic generator of named scenario
// archetypes (pattern drift, working-set growth, hot-object rotation, rank
// imbalance, bursty communication).
//
// The schema round-trips every built-in workload exactly: FromWorkload
// writes out each phase's traffic epochs and Compile reconstructs them,
// so Save -> Load -> Run is byte-identical to running the original.
// Workloads can therefore be authored, stored, mutated and exchanged as
// files without touching Go, and the experiment layer's run cache keys on
// a content digest of the spec (Workload.SpecDigest) so same-named
// scenarios never collide.
//
// Two mechanisms express iteration-varying traffic, and they compose:
//
//   - Per-ref schedules (RefSpec.Schedule): piecewise windows scaling a
//     base reference's access count and overriding its pattern or
//     read/write mix — the generator's vocabulary for drift.
//   - Phase epochs (PhaseSpec.Epochs): explicit full reference lists per
//     iteration window — the exact-capture vocabulary FromWorkload uses
//     for phases with more than one traffic epoch (Nek5000's rotating
//     Krylov sets).
//
// Compile turns both into workloads.Phase epoch lists, evaluating each
// phase once per change point rather than once per iteration.
//
// Communication burstiness (PhaseSpec.CommSchedule) and rank imbalance
// (PhaseSpec.RankSkew) map onto the execution harness extensions in
// package workloads.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"

	"unimem/internal/machine"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// Spec is the top-level declarative workload description.
type Spec struct {
	Name       string `json:"name"`
	Class      string `json:"class,omitempty"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	// FootprintFrac is the fraction of the application footprint covered
	// by the target objects (defaults to 1).
	FootprintFrac float64      `json:"footprint_frac,omitempty"`
	Objects       []ObjectSpec `json:"objects"`
	Phases        []PhaseSpec  `json:"phases"`
}

// ObjectSpec declares one target data object.
type ObjectSpec struct {
	Name string `json:"name"`
	// SizeBytes is the per-rank simulated size.
	SizeBytes int64 `json:"size_bytes"`
	// Partitionable marks regular 1-D arrays the runtime may chunk.
	Partitionable bool `json:"partitionable,omitempty"`
	// RefHint is the static per-iteration reference-count estimate the
	// compiler analysis would produce (0: unknown before the loop).
	RefHint float64 `json:"ref_hint,omitempty"`
}

// PhaseSpec declares one phase of the iteration body.
type PhaseSpec struct {
	Name string `json:"name"`
	// Comm names the MPI operation: "" or "none" for computation phases,
	// else one of allreduce|halo|alltoall|bcast|barrier|waithalo.
	Comm      string `json:"comm,omitempty"`
	CommBytes int64  `json:"comm_bytes,omitempty"`
	// CommSchedule scales CommBytes per iteration window (bursty comm).
	CommSchedule []workloads.ScaleWindow `json:"comm_schedule,omitempty"`
	Flops        float64                 `json:"flops,omitempty"`
	// RankSkew linearly imbalances the phase across ranks; see
	// workloads.Phase.RankSkew. Valid range [0, 2).
	RankSkew float64 `json:"rank_skew,omitempty"`
	// Refs is the phase's base per-iteration traffic, optionally shaped
	// by per-ref schedules.
	Refs []RefSpec `json:"refs,omitempty"`
	// Epochs override Refs wholesale for the iteration windows they
	// cover (first matching epoch wins; uncovered iterations fall back
	// to Refs).
	Epochs []EpochSpec `json:"epochs,omitempty"`
}

// RefSpec declares one object's traffic in a phase.
type RefSpec struct {
	Object string `json:"object"`
	// Accesses is the base per-rank post-LLC access count.
	Accesses int64 `json:"accesses"`
	// ReadFrac is the fraction of accesses that are reads.
	ReadFrac float64 `json:"read_frac"`
	// Pattern is one of stream|stencil|random|pointer-chase.
	Pattern string `json:"pattern"`
	// Schedule applies piecewise per-iteration scale factors and
	// pattern / read-mix overrides (first matching window wins; outside
	// every window the base values apply).
	Schedule []RefWindow `json:"schedule,omitempty"`
}

// RefWindow is one segment of a reference's piecewise schedule.
type RefWindow struct {
	// From (inclusive) and To (exclusive) bound the window in
	// iterations; To <= 0 means "until the end of the run".
	From int `json:"from"`
	To   int `json:"to,omitempty"`
	// Scale multiplies the base access count; 0 silences the reference
	// for the window entirely.
	Scale float64 `json:"scale"`
	// Pattern optionally overrides the base access pattern.
	Pattern string `json:"pattern,omitempty"`
	// ReadFrac optionally overrides the base read fraction.
	ReadFrac *float64 `json:"read_frac,omitempty"`
}

// inWindow reports whether a [from, to) iteration window covers iter
// (to == 0: open-ended). All spec window types share these semantics,
// mirroring workloads.ScaleWindow.Contains on the execution side.
func inWindow(from, to, iter int) bool {
	return iter >= from && (to <= 0 || iter < to)
}

// contains reports whether the window covers the iteration.
func (w RefWindow) contains(iter int) bool { return inWindow(w.From, w.To, iter) }

// EpochSpec is one iteration window with an explicit reference list.
type EpochSpec struct {
	// From (inclusive) and To (exclusive) bound the epoch; To <= 0 means
	// "until the end of the run".
	From int `json:"from"`
	To   int `json:"to,omitempty"`
	// Refs is the complete reference list of the phase during the epoch
	// (per-ref schedules are not allowed inside epochs).
	Refs []RefSpec `json:"refs"`
}

// contains reports whether the epoch covers the iteration.
func (e EpochSpec) contains(iter int) bool { return inWindow(e.From, e.To, iter) }

// patternNames maps schema pattern strings to machine patterns.
var patternNames = map[string]machine.Pattern{
	"stream":        machine.Stream,
	"stencil":       machine.Stencil,
	"random":        machine.Random,
	"pointer-chase": machine.PointerChase,
}

// commNames maps schema comm strings to workload comm kinds.
var commNames = map[string]workloads.CommKind{
	"":          workloads.CommNone,
	"none":      workloads.CommNone,
	"allreduce": workloads.CommAllreduce,
	"halo":      workloads.CommHalo,
	"alltoall":  workloads.CommAlltoall,
	"bcast":     workloads.CommBcast,
	"barrier":   workloads.CommBarrier,
	"waithalo":  workloads.CommWaitHalo,
}

// commString renders a comm kind as its schema name.
func commString(k workloads.CommKind) string {
	switch k {
	case workloads.CommNone:
		return ""
	case workloads.CommAllreduce:
		return "allreduce"
	case workloads.CommHalo:
		return "halo"
	case workloads.CommAlltoall:
		return "alltoall"
	case workloads.CommBcast:
		return "bcast"
	case workloads.CommBarrier:
		return "barrier"
	case workloads.CommWaitHalo:
		return "waithalo"
	}
	return fmt.Sprintf("comm(%d)", int(k))
}

// Validate checks the spec's internal consistency. Errors name the
// offending field in JSON-path form (e.g. phases[1].refs[0].object).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario %q: name: must be non-empty", s.Name)
	}
	if s.Ranks <= 0 {
		return fmt.Errorf("scenario %q: ranks: must be positive, got %d", s.Name, s.Ranks)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("scenario %q: iterations: must be positive, got %d", s.Name, s.Iterations)
	}
	if s.FootprintFrac < 0 || s.FootprintFrac > 1 {
		return fmt.Errorf("scenario %q: footprint_frac: must be in [0,1], got %g", s.Name, s.FootprintFrac)
	}
	if len(s.Objects) == 0 {
		return fmt.Errorf("scenario %q: objects: must declare at least one object", s.Name)
	}
	known := make(map[string]bool, len(s.Objects))
	for i, o := range s.Objects {
		if o.Name == "" {
			return fmt.Errorf("scenario %q: objects[%d].name: must be non-empty", s.Name, i)
		}
		if known[o.Name] {
			return fmt.Errorf("scenario %q: objects[%d].name: duplicate object %q", s.Name, i, o.Name)
		}
		known[o.Name] = true
		if o.SizeBytes <= 0 {
			return fmt.Errorf("scenario %q: objects[%d].size_bytes: must be positive, got %d", s.Name, i, o.SizeBytes)
		}
		if o.RefHint < 0 {
			return fmt.Errorf("scenario %q: objects[%d].ref_hint: must be non-negative, got %g", s.Name, i, o.RefHint)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: phases: must declare at least one phase", s.Name)
	}
	// checkWindow validates shared [from, to) window bounds: from >= 0 and
	// to either 0 (open-ended) or strictly past from — negative to is a
	// rejected typo, not an alias for open-ended.
	checkWindow := func(path string, from, to int) error {
		if from < 0 {
			return fmt.Errorf("scenario %q: %s.from: must be non-negative, got %d", s.Name, path, from)
		}
		if to < 0 {
			return fmt.Errorf("scenario %q: %s.to: must be 0 (open-ended) or > from, got %d", s.Name, path, to)
		}
		if to > 0 && to <= from {
			return fmt.Errorf("scenario %q: %s.to: must exceed from (%d), got %d", s.Name, path, from, to)
		}
		return nil
	}
	checkRef := func(path string, r RefSpec, inEpoch bool) error {
		if !known[r.Object] {
			return fmt.Errorf("scenario %q: %s.object: unknown object %q", s.Name, path, r.Object)
		}
		if r.Accesses <= 0 {
			return fmt.Errorf("scenario %q: %s.accesses: must be positive, got %d", s.Name, path, r.Accesses)
		}
		if r.ReadFrac < 0 || r.ReadFrac > 1 {
			return fmt.Errorf("scenario %q: %s.read_frac: must be in [0,1], got %g", s.Name, path, r.ReadFrac)
		}
		if _, ok := patternNames[r.Pattern]; !ok {
			return fmt.Errorf("scenario %q: %s.pattern: unknown pattern %q (want stream|stencil|random|pointer-chase)", s.Name, path, r.Pattern)
		}
		if inEpoch && len(r.Schedule) > 0 {
			return fmt.Errorf("scenario %q: %s.schedule: per-ref schedules are not allowed inside epochs", s.Name, path)
		}
		for k, w := range r.Schedule {
			wpath := fmt.Sprintf("%s.schedule[%d]", path, k)
			if err := checkWindow(wpath, w.From, w.To); err != nil {
				return err
			}
			if w.Scale < 0 {
				return fmt.Errorf("scenario %q: %s.scale: must be non-negative, got %g", s.Name, wpath, w.Scale)
			}
			if w.Pattern != "" {
				if _, ok := patternNames[w.Pattern]; !ok {
					return fmt.Errorf("scenario %q: %s.pattern: unknown pattern %q", s.Name, wpath, w.Pattern)
				}
			}
			if w.ReadFrac != nil && (*w.ReadFrac < 0 || *w.ReadFrac > 1) {
				return fmt.Errorf("scenario %q: %s.read_frac: must be in [0,1], got %g", s.Name, wpath, *w.ReadFrac)
			}
		}
		return nil
	}
	for i, p := range s.Phases {
		ppath := fmt.Sprintf("phases[%d]", i)
		if p.Name == "" {
			return fmt.Errorf("scenario %q: %s.name: must be non-empty", s.Name, ppath)
		}
		if _, ok := commNames[p.Comm]; !ok {
			return fmt.Errorf("scenario %q: %s.comm: unknown comm kind %q (want none|allreduce|halo|alltoall|bcast|barrier|waithalo)", s.Name, ppath, p.Comm)
		}
		if p.CommBytes < 0 {
			return fmt.Errorf("scenario %q: %s.comm_bytes: must be non-negative, got %d", s.Name, ppath, p.CommBytes)
		}
		if p.Flops < 0 {
			return fmt.Errorf("scenario %q: %s.flops: must be non-negative, got %g", s.Name, ppath, p.Flops)
		}
		if p.RankSkew < 0 || p.RankSkew >= 2 {
			return fmt.Errorf("scenario %q: %s.rank_skew: must be in [0,2), got %g", s.Name, ppath, p.RankSkew)
		}
		for k, w := range p.CommSchedule {
			wpath := fmt.Sprintf("%s.comm_schedule[%d]", ppath, k)
			if err := checkWindow(wpath, w.From, w.To); err != nil {
				return err
			}
			if w.Scale < 0 {
				return fmt.Errorf("scenario %q: %s.scale: must be non-negative, got %g", s.Name, wpath, w.Scale)
			}
		}
		for j, r := range p.Refs {
			if err := checkRef(fmt.Sprintf("%s.refs[%d]", ppath, j), r, false); err != nil {
				return err
			}
		}
		for e, ep := range p.Epochs {
			epath := fmt.Sprintf("%s.epochs[%d]", ppath, e)
			if err := checkWindow(epath, ep.From, ep.To); err != nil {
				return err
			}
			for j, r := range ep.Refs {
				if err := checkRef(fmt.Sprintf("%s.refs[%d]", epath, j), r, true); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Encode renders the spec as indented JSON.
func (s *Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Digest returns a content hash of the spec (FNV-1a over its canonical
// JSON encoding): the run-cache fingerprint component that distinguishes
// scenarios sharing a name.
func (s *Spec) Digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("scenario: digest of %q: %v", s.Name, err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Parse decodes and validates a spec from JSON. Unknown fields are
// rejected so typos surface as errors rather than silently-ignored keys.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads, decodes and validates a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Save writes the spec as indented JSON to path.
func (s *Spec) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ref materializes a RefSpec at schedule scale 1.
func (r RefSpec) ref() (phase.Ref, bool) {
	return r.refAt(-1)
}

// refAt materializes a RefSpec for the given iteration, applying the first
// matching schedule window (iter < 0 skips the schedule). The second
// return is false when the window silences the reference.
func (r RefSpec) refAt(iter int) (phase.Ref, bool) {
	acc := r.Accesses
	pat := patternNames[r.Pattern]
	readFrac := r.ReadFrac
	if iter >= 0 {
		for _, w := range r.Schedule {
			if !w.contains(iter) {
				continue
			}
			if w.Scale == 0 {
				return phase.Ref{}, false
			}
			acc = int64(float64(acc) * w.Scale)
			if acc < 1 {
				acc = 1
			}
			if w.Pattern != "" {
				pat = patternNames[w.Pattern]
			}
			if w.ReadFrac != nil {
				readFrac = *w.ReadFrac
			}
			break
		}
	}
	return phase.Ref{Object: r.Object, Accesses: acc, ReadFrac: readFrac, Pattern: pat}, true
}

// refsAt materializes a phase's reference list for one iteration.
func (p *PhaseSpec) refsAt(iter int) []phase.Ref {
	for _, ep := range p.Epochs {
		if !ep.contains(iter) {
			continue
		}
		out := make([]phase.Ref, 0, len(ep.Refs))
		for _, r := range ep.Refs {
			ref, _ := r.ref()
			out = append(out, ref)
		}
		return out
	}
	out := make([]phase.Ref, 0, len(p.Refs))
	for _, r := range p.Refs {
		if ref, ok := r.refAt(iter); ok {
			out = append(out, ref)
		}
	}
	return out
}

// Compile materializes the spec into an executable workload. Each phase's
// reference list can change only where some epoch or schedule window
// starts or ends, so Compile evaluates it once per such change point in
// [0, Iterations) and merges equal neighbours into the phase's epoch list;
// iterations beyond the spec's range reuse the last list.
func (s *Spec) Compile() (*workloads.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := &workloads.Workload{
		Name:          s.Name,
		Class:         s.Class,
		Ranks:         s.Ranks,
		Iterations:    s.Iterations,
		FootprintFrac: s.FootprintFrac,
		SpecDigest:    s.Digest(),
	}
	if w.Class == "" {
		w.Class = "scenario"
	}
	if w.FootprintFrac == 0 {
		w.FootprintFrac = 1
	}
	for _, o := range s.Objects {
		w.Objects = append(w.Objects, workloads.ObjectSpec{
			Name:          o.Name,
			Size:          o.SizeBytes,
			Partitionable: o.Partitionable,
			RefHint:       o.RefHint,
		})
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		kind := phase.Compute
		comm := commNames[p.Comm]
		if comm != workloads.CommNone {
			kind = phase.Comm
		}
		var epochs []workloads.RefEpoch
		for _, at := range p.changePoints(s.Iterations) {
			epochs = workloads.AppendEpoch(epochs, at, p.refsAt(at))
		}
		w.Phases = append(w.Phases, workloads.Phase{
			Name:         p.Name,
			Kind:         kind,
			Comm:         comm,
			CommBytes:    p.CommBytes,
			CommSchedule: append([]workloads.ScaleWindow(nil), p.CommSchedule...),
			Flops:        p.Flops,
			RankSkew:     p.RankSkew,
			Epochs:       epochs,
		})
	}
	return w, nil
}

// changePoints returns, sorted and distinct, the iterations in [0, iters)
// at which the phase's reference list may change: 0 and every epoch and
// reference-window bound (an open end, To = 0, adds nothing new).
func (p *PhaseSpec) changePoints(iters int) []int {
	pts := []int{0}
	for _, ep := range p.Epochs {
		pts = append(pts, ep.From, ep.To)
	}
	for _, r := range p.Refs {
		for _, rw := range r.Schedule {
			pts = append(pts, rw.From, rw.To)
		}
	}
	pts = slices.DeleteFunc(pts, func(at int) bool { return at >= iters })
	slices.Sort(pts)
	return slices.Compact(pts)
}

// refSpec captures a materialized reference back into the schema.
func refSpec(r phase.Ref) RefSpec {
	return RefSpec{
		Object:   r.Object,
		Accesses: r.Accesses,
		ReadFrac: r.ReadFrac,
		Pattern:  r.Pattern.String(),
	}
}

// FromWorkload captures a workload into the declarative schema. A phase
// with one traffic epoch becomes a plain reference list; a phase with
// several (like Nek5000's rotating Krylov sets) becomes one schema epoch
// per stretch that starts inside the run, each reaching to the next and
// the last open-ended, preserving reference order — which is what makes
// the round trip byte-identical under simulation.
func FromWorkload(w *workloads.Workload) (*Spec, error) {
	if w.Iterations <= 0 {
		return nil, fmt.Errorf("scenario: workload %q: iterations must be positive, got %d", w.Name, w.Iterations)
	}
	s := &Spec{
		Name:          w.Name,
		Class:         w.Class,
		Ranks:         w.Ranks,
		Iterations:    w.Iterations,
		FootprintFrac: w.FootprintFrac,
	}
	for _, o := range w.Objects {
		s.Objects = append(s.Objects, ObjectSpec{
			Name:          o.Name,
			SizeBytes:     o.Size,
			Partitionable: o.Partitionable,
			RefHint:       o.RefHint,
		})
	}
	for i := range w.Phases {
		ph := &w.Phases[i]
		ps := PhaseSpec{
			Name:         ph.Name,
			Comm:         commString(ph.Comm),
			CommBytes:    ph.CommBytes,
			CommSchedule: append([]workloads.ScaleWindow(nil), ph.CommSchedule...),
			Flops:        ph.Flops,
			RankSkew:     ph.RankSkew,
		}
		toSpecs := func(refs []phase.Ref) []RefSpec {
			out := make([]RefSpec, 0, len(refs))
			for _, r := range refs {
				out = append(out, refSpec(r))
			}
			return out
		}
		n := 0
		for n < len(ph.Epochs) && ph.Epochs[n].From < w.Iterations {
			n++
		}
		if n <= 1 {
			ps.Refs = toSpecs(ph.Refs(0))
		} else {
			for k, e := range ph.Epochs[:n] {
				to := 0 // open-ended: until the end of the run
				if k+1 < n {
					to = ph.Epochs[k+1].From
				}
				ps.Epochs = append(ps.Epochs, EpochSpec{From: e.From, To: to, Refs: toSpecs(e.Refs)})
			}
		}
		s.Phases = append(s.Phases, ps)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: capture of workload %q produced an invalid spec: %w", w.Name, err)
	}
	return s, nil
}
