// Package obs is the observability layer: a zero-dependency metrics
// registry (labeled counters, gauges and fixed-bucket latency histograms,
// plus scrape-time counter and gauge functions) exposed in Prometheus text
// format, and a span-style per-run trace recorder (trace.go) exportable as
// Chrome trace-event JSON.
//
// The package is designed to be always compiled in but free when unused:
// every constructor on a nil *Registry returns a nil instrument, and every
// method on a nil instrument is a no-op, so instrumented code paths carry
// a single pointer check when observability is disabled. Instruments are
// safe for concurrent use; hot-path operations (Counter.Add,
// FloatGauge.Set, Histogram.Observe) are single atomic updates.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricNameRe is the Prometheus metric-name grammar; label names drop the
// colon. Registration panics on violations — a malformed name is a
// programmer error that would silently corrupt the exposition otherwise.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one exposition block: a # HELP / # TYPE header plus the sample
// lines of every child (label combination) of the metric.
type family interface {
	meta() (name, help, typ string)
	// write appends the family's sample lines (no header) to b.
	write(b *strings.Builder)
}

// Registry holds metric families in registration order and renders them as
// Prometheus text exposition format (version 0.0.4). The zero value is not
// usable; construct with NewRegistry. A nil *Registry is the disabled
// mode: its constructors return nil instruments whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register validates and appends one family.
func (r *Registry) register(f family) {
	name, _, _ := f.meta()
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.families = append(r.families, f)
}

func checkLabels(labels []string) {
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// labelPairs renders {k="v",...} for parallel name/value slices ("" for an
// empty set).
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the full exposition document. It implements
// io.WriterTo; a nil registry writes nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		name, help, typ := f.meta()
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		f.write(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the registry as a /metrics endpoint. The exposition is
// rendered to a buffer first so the response carries Content-Length, and
// HEAD requests receive the headers (with the length of the body a GET
// would return) without a body — what scrapers and load balancers probing
// the endpoint expect.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteTo(&b)
		body := b.String()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		if req != nil && req.Method == http.MethodHead {
			return
		}
		io.WriteString(w, body)
	})
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing value. A nil Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored — counters
// are monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
	order  []string
	vals   map[string][]string
}

// With returns the child counter for the label values, creating it on
// first use. The value count must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{}
		v.kids[key] = c
		v.order = append(v.order, key)
		v.vals[key] = append([]string(nil), values...)
	}
	return c
}

type counterVecFamily struct {
	help string
	v    *CounterVec
}

func (f *counterVecFamily) meta() (string, string, string) { return f.v.name, f.help, "counter" }
func (f *counterVecFamily) write(b *strings.Builder) {
	f.v.mu.Lock()
	keys := append([]string(nil), f.v.order...)
	f.v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		f.v.mu.Lock()
		c, vals := f.v.kids[k], f.v.vals[k]
		f.v.mu.Unlock()
		fmt.Fprintf(b, "%s%s %d\n", f.v.name, labelPairs(f.v.labels, vals), c.Value())
	}
}

// CounterVec registers a labeled counter family (nil on a nil registry).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	checkLabels(labels)
	v := &CounterVec{name: name, labels: labels, kids: map[string]*Counter{}, vals: map[string][]string{}}
	r.register(&counterVecFamily{help: help, v: v})
	return v
}

// ---------------------------------------------------------------------------
// Gauge

// FloatGauge is a float-valued gauge (the fleet regret figures are
// fractions). A nil FloatGauge no-ops.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a float-valued gauge family partitioned by label values.
type GaugeVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*FloatGauge
	order  []string
	vals   map[string][]string
}

// With returns the child gauge for the label values, creating it on first
// use. The value count must match the registered label names.
func (v *GaugeVec) With(values ...string) *FloatGauge {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[key]
	if !ok {
		g = &FloatGauge{}
		v.kids[key] = g
		v.order = append(v.order, key)
		v.vals[key] = append([]string(nil), values...)
	}
	return g
}

type gaugeVecFamily struct {
	help string
	v    *GaugeVec
}

func (f *gaugeVecFamily) meta() (string, string, string) { return f.v.name, f.help, "gauge" }
func (f *gaugeVecFamily) write(b *strings.Builder) {
	f.v.mu.Lock()
	keys := append([]string(nil), f.v.order...)
	f.v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		f.v.mu.Lock()
		g, vals := f.v.kids[k], f.v.vals[k]
		f.v.mu.Unlock()
		fmt.Fprintf(b, "%s%s %s\n", f.v.name, labelPairs(f.v.labels, vals), formatValue(g.Value()))
	}
}

// GaugeVec registers a labeled float-gauge family (nil on a nil registry).
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	checkLabels(labels)
	v := &GaugeVec{name: name, labels: labels, kids: map[string]*FloatGauge{}, vals: map[string][]string{}}
	r.register(&gaugeVecFamily{help: help, v: v})
	return v
}

type gaugeFuncFamily struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFuncFamily) meta() (string, string, string) { return f.name, f.help, "gauge" }
func (f *gaugeFuncFamily) write(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the bridge for state that already has its own counters (cache stats,
// pool depths, simulator totals). fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&gaugeFuncFamily{name: name, help: help, fn: fn})
}

type counterFuncFamily struct {
	name, help string
	fn         func() float64
}

func (f *counterFuncFamily) meta() (string, string, string) { return f.name, f.help, "counter" }
func (f *counterFuncFamily) write(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external monotonic source (e.g. cache hit totals). fn must be
// monotonic and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&counterFuncFamily{name: name, help: help, fn: fn})
}

// CounterFuncVec is a labeled counter family whose children read external
// monotonic sources at scrape time — CounterFunc partitioned by label
// values (e.g. iteration totals by mode). A nil CounterFuncVec no-ops.
type CounterFuncVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   []counterFuncChild
}

type counterFuncChild struct {
	values []string
	fn     func() float64
}

// With binds one label combination to its scrape-time source. fn must be
// monotonic and safe to call concurrently; the value count must match the
// registered label names. Children render in registration order.
func (v *CounterFuncVec) With(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.kids = append(v.kids, counterFuncChild{values: append([]string(nil), values...), fn: fn})
}

type counterFuncVecFamily struct {
	help string
	v    *CounterFuncVec
}

func (f *counterFuncVecFamily) meta() (string, string, string) { return f.v.name, f.help, "counter" }
func (f *counterFuncVecFamily) write(b *strings.Builder) {
	f.v.mu.Lock()
	kids := append([]counterFuncChild(nil), f.v.kids...)
	f.v.mu.Unlock()
	for _, k := range kids {
		fmt.Fprintf(b, "%s%s %s\n", f.v.name, labelPairs(f.v.labels, k.values), formatValue(k.fn()))
	}
}

// CounterFuncVec registers a labeled scrape-time counter family (nil on a
// nil registry).
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *CounterFuncVec {
	if r == nil {
		return nil
	}
	checkLabels(labels)
	v := &CounterFuncVec{name: name, labels: labels}
	r.register(&counterFuncVecFamily{help: help, v: v})
	return v
}

// ---------------------------------------------------------------------------
// Histogram

// DefBuckets is the default latency bucket layout in seconds: 100µs to
// ~100s in roughly 1-2.5-5 steps — wide enough for both microsecond cache
// hits and multi-second cold simulations.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram is a fixed-bucket histogram with cumulative exposition. A nil
// Histogram no-ops.
type Histogram struct {
	bounds  []float64      // upper bounds, ascending; +Inf implicit
	counts  []atomic.Int64 // per-bucket (non-cumulative) counts
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the value sum
}

func newHistogram(buckets []float64) *Histogram {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the last slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// writeSamples appends the histogram's _bucket/_sum/_count lines.
func (h *Histogram) writeSamples(b *strings.Builder, name string, labelNames, labelValues []string) {
	var cum int64
	withLE := func(le string) string {
		ns := append(append([]string(nil), labelNames...), "le")
		vs := append(append([]string(nil), labelValues...), le)
		return labelPairs(ns, vs)
	}
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelPairs(labelNames, labelValues), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelPairs(labelNames, labelValues), h.count.Load())
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	name    string
	labels  []string
	buckets []float64
	mu      sync.Mutex
	kids    map[string]*Histogram
	order   []string
	vals    map[string][]string
}

// With returns the child histogram for the label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = newHistogram(v.buckets)
		v.kids[key] = h
		v.order = append(v.order, key)
		v.vals[key] = append([]string(nil), values...)
	}
	return h
}

// Children returns the live (labelValues, histogram) pairs in sorted
// label order.
func (v *HistogramVec) Children() [][2]interface{} {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	v.mu.Unlock()
	sort.Strings(keys)
	out := make([][2]interface{}, 0, len(keys))
	for _, k := range keys {
		v.mu.Lock()
		h, vals := v.kids[k], v.vals[k]
		v.mu.Unlock()
		out = append(out, [2]interface{}{vals, h})
	}
	return out
}

type histogramVecFamily struct {
	help string
	v    *HistogramVec
}

func (f *histogramVecFamily) meta() (string, string, string) { return f.v.name, f.help, "histogram" }
func (f *histogramVecFamily) write(b *strings.Builder) {
	f.v.mu.Lock()
	keys := append([]string(nil), f.v.order...)
	f.v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		f.v.mu.Lock()
		h, vals := f.v.kids[k], f.v.vals[k]
		f.v.mu.Unlock()
		h.writeSamples(b, f.v.name, f.v.labels, vals)
	}
}

// HistogramVec registers a labeled histogram family (nil buckets:
// DefBuckets). Returns nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	checkLabels(labels)
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	v := &HistogramVec{name: name, labels: labels, buckets: bs, kids: map[string]*Histogram{}, vals: map[string][]string{}}
	r.register(&histogramVecFamily{help: help, v: v})
	return v
}
