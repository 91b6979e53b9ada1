// Package counters emulates the sampling-mode hardware performance counters
// Unimem profiles with (§3.1.1): Intel PEBS / AMD IBS style last-level-cache
// miss sampling, where each sample carries the memory address of a missing
// reference and the runtime maps addresses back to registered data objects.
//
// The emulation reproduces the two measurement artifacts the paper's model
// has to live with:
//
//   - Undercounting. Performance counters cannot observe cache-line
//     evictions or hardware-prefetch traffic, and sampling itself loses
//     events; the paper's CF_bw / CF_lat constant factors exist to correct
//     for this. The sampler applies a configurable capture ratio < 1 plus
//     seeded multiplicative jitter to every per-object access count.
//   - Busy-fraction estimation. Eq. 1's denominator is the fraction of
//     samples that observe an outstanding access to the object; the sampler
//     derives it from the timing model's per-object service time within the
//     phase, again with jitter.
//
// Everything is deterministic given the seed carried by the Sampler.
package counters

import (
	"unimem/internal/machine"
	"unimem/internal/xrand"
)

// ObjSample is the profile of one chunk within one phase as seen through
// the sampled counters.
type ObjSample struct {
	// ID is the sampled chunk's dense per-heap identifier (memsys.Chunk.ID),
	// which consumers index their per-chunk tables by.
	ID int
	// Chunk names the sampled chunk ("obj" or "obj[i]").
	Chunk string
	// Object names the owning object.
	Object string
	// ChunkIndex is the chunk's index within the object.
	ChunkIndex int
	// SampledAccesses is the estimated number of main-memory accesses
	// (#data_access in Eq. 1): true count degraded by capture ratio+jitter.
	SampledAccesses int64
	// BusySamples is the number of samples that observed an in-flight
	// access to this chunk; TotalSamples-normalized it gives Eq. 1's
	// (#samples with data accesses / #samples).
	BusySamples int64
	// ReadFrac is the observed read fraction of the sampled accesses.
	ReadFrac float64
	// Pattern is attached for test introspection only; the Unimem model
	// never reads it (it classifies via Eq. 1, as the paper does).
	Pattern machine.Pattern
}

// PhaseSample is the counter view of one execution of one phase.
type PhaseSample struct {
	// DurNS is the measured phase duration.
	DurNS float64
	// TotalSamples is the number of counter samples taken in the phase.
	TotalSamples int64
	// Objects holds one entry per chunk that produced main-memory traffic.
	Objects []ObjSample
	// OverheadNS is the profiling overhead added to the phase's critical
	// path while sampling was enabled.
	OverheadNS float64
}

// Config tunes the emulated counter infrastructure.
type Config struct {
	// CaptureRatio is the fraction of true main-memory accesses the
	// sampled counters account for (default 0.80).
	CaptureRatio float64
	// JitterSigma is the relative sigma of the multiplicative measurement
	// noise (default 0.03).
	JitterSigma float64
	// OverheadFrac is the fractional slowdown imposed on a phase while
	// sampling is enabled (default 0.35: a counter interrupt every 1000
	// cycles is expensive while it runs, but it runs only for profiled
	// iterations, so the amortized "pure runtime cost" stays in the
	// paper's sub-3% range).
	OverheadFrac float64
}

// Default returns the default counter configuration.
func Default() Config {
	return Config{CaptureRatio: 0.80, JitterSigma: 0.03, OverheadFrac: 0.35}
}

func (c *Config) fill() {
	if c.CaptureRatio == 0 {
		c.CaptureRatio = 0.80
	}
	if c.JitterSigma == 0 {
		c.JitterSigma = 0.03
	}
	if c.OverheadFrac == 0 {
		c.OverheadFrac = 0.35
	}
}

// Sampler emulates one rank's counter infrastructure.
type Sampler struct {
	cfg  Config
	mach *machine.Machine
	rng  *xrand.RNG
	on   bool
}

// NewSampler returns a sampler for the given machine, seeded deterministically.
func NewSampler(m *machine.Machine, cfg Config, seed uint64) *Sampler {
	cfg.fill()
	return &Sampler{cfg: cfg, mach: m, rng: xrand.New(seed)}
}

// Enable turns sampling on (the runtime enables it for profiled iterations
// only, via the PMPI wrapper in the paper).
func (s *Sampler) Enable() { s.on = true }

// Disable turns sampling off.
func (s *Sampler) Disable() { s.on = false }

// Enabled reports whether sampling is active.
func (s *Sampler) Enabled() bool { return s.on }

// ChunkTraffic is the ground-truth traffic of one chunk in one phase,
// provided by the execution harness (which knows placement and the timing
// model). The sampler degrades it into what counters would report.
type ChunkTraffic struct {
	// ID is the chunk's dense per-heap identifier (memsys.Chunk.ID); the
	// sampler copies it into ObjSample.ID.
	ID         int
	Chunk      string
	Object     string
	ChunkIndex int
	Accesses   int64 // true post-cache accesses
	ServiceNS  float64
	ReadFrac   float64
	Pattern    machine.Pattern
}

// Sample converts ground-truth phase traffic into a PhaseSample. If
// sampling is disabled it returns nil (no profile, no overhead).
func (s *Sampler) Sample(durNS float64, traffic []ChunkTraffic) *PhaseSample {
	if !s.on {
		return nil
	}
	period := s.mach.SamplePeriodNS()
	total := int64(durNS / period)
	if total < 1 {
		total = 1
	}
	ps := &PhaseSample{
		DurNS:        durNS,
		TotalSamples: total,
		OverheadNS:   durNS * s.cfg.OverheadFrac,
		Objects:      make([]ObjSample, 0, len(traffic)),
	}
	for _, t := range traffic {
		if t.Accesses <= 0 {
			continue
		}
		acc := int64(float64(t.Accesses) * s.cfg.CaptureRatio * s.rng.Jitter(s.cfg.JitterSigma))
		if acc < 1 {
			acc = 1
		}
		busyFrac := t.ServiceNS / durNS * s.rng.Jitter(s.cfg.JitterSigma)
		if busyFrac > 1 {
			busyFrac = 1
		}
		busy := int64(busyFrac * float64(total))
		if busy < 1 {
			busy = 1
		}
		ps.Objects = append(ps.Objects, ObjSample{
			ID:              t.ID,
			Chunk:           t.Chunk,
			Object:          t.Object,
			ChunkIndex:      t.ChunkIndex,
			SampledAccesses: acc,
			BusySamples:     busy,
			ReadFrac:        t.ReadFrac,
			Pattern:         t.Pattern,
		})
	}
	return ps
}
