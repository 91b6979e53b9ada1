package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Clock selects which timeline a span is recorded against. The simulator
// advances a virtual clock in nanoseconds that bears no relation to wall
// time; exporting both as separate Chrome-trace "processes" lets the two
// timelines sit side by side in chrome://tracing.
type Clock int

const (
	// Virtual is the simulator's logical clock (Comm.Clock()), in ns.
	Virtual Clock = 1
	// Wall is real time, measured from the trace's creation instant.
	Wall Clock = 2
)

// TraceEvent is one Chrome trace-event record. Fields mirror the
// trace-event JSON format: ph "X" is a complete span (Ts..Ts+Dur), ph "i"
// an instant, ph "M" metadata. Timestamps and durations are microseconds
// (float, so sub-µs virtual spans survive).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace accumulates span and instant events for one run. All methods are
// safe for concurrent use and safe on a nil receiver, so instrumented
// code threads a *Trace unconditionally and pays one nil check when
// tracing is off. Construct with NewTrace.
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	events []TraceEvent
}

// NewTrace returns an empty trace whose wall-clock origin is now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

func (t *Trace) add(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span records a complete event on the given clock's track. For Virtual,
// startNS/endNS are simulator nanoseconds; for Wall they are nanoseconds
// since the trace origin (use WallSpan for the common time.Time form).
// tid groups events into rows — ranks for virtual spans, goroutine-ish
// lanes for wall spans.
func (t *Trace) Span(clock Clock, tid int, name, cat string, startNS, endNS int64, args map[string]any) {
	if t == nil {
		return
	}
	if endNS < startNS {
		endNS = startNS
	}
	t.add(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: float64(startNS) / 1e3, Dur: float64(endNS-startNS) / 1e3,
		Pid: int(clock), Tid: tid, Args: args,
	})
}

// Instant records a point event on the given clock's track.
func (t *Trace) Instant(clock Clock, tid int, name, cat string, atNS int64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(TraceEvent{
		Name: name, Cat: cat, Ph: "i", S: "t",
		Ts: float64(atNS) / 1e3, Pid: int(clock), Tid: tid, Args: args,
	})
}

// Meta records a metadata event carried into the exported document — the
// daemon stamps the request ID here so a Chrome trace can be joined back
// to its log lines and explain document.
func (t *Trace) Meta(key string, value any) {
	if t == nil {
		return
	}
	t.add(TraceEvent{
		Name: key, Ph: "M", Pid: int(Wall),
		Args: map[string]any{"value": value},
	})
}

// WallSpan records a wall-clock span from start to now, relative to the
// trace origin. It returns the duration for callers that also feed a
// histogram.
func (t *Trace) WallSpan(tid int, name, cat string, start time.Time, args map[string]any) time.Duration {
	d := time.Since(start)
	if t == nil {
		return d
	}
	t.Span(Wall, tid, name, cat, int64(start.Sub(t.t0)), int64(start.Sub(t.t0))+int64(d), args)
	return d
}

// Len returns the number of recorded events (0 on nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events (nil on nil).
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// chromeDoc is the chrome://tracing container object.
type chromeDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// metadataEvents name the two clock tracks so chrome://tracing labels
// them instead of showing bare pids.
func metadataEvents() []TraceEvent {
	meta := func(pid int, name string) TraceEvent {
		return TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		}
	}
	return []TraceEvent{
		meta(int(Virtual), "virtual clock (simulated ns)"),
		meta(int(Wall), "wall clock"),
	}
}

// WriteChrome writes the trace as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. A nil trace writes an empty document.
func (t *Trace) WriteChrome(w io.Writer) error {
	doc := chromeDoc{TraceEvents: metadataEvents(), DisplayTimeUnit: "ms"}
	if t != nil {
		doc.TraceEvents = append(doc.TraceEvents, t.Events()...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// MarshalChrome returns the Chrome trace-event JSON document as bytes —
// the form the /run?trace=1 response embeds.
func (t *Trace) MarshalChrome() ([]byte, error) {
	doc := chromeDoc{TraceEvents: metadataEvents(), DisplayTimeUnit: "ms"}
	if t != nil {
		doc.TraceEvents = append(doc.TraceEvents, t.Events()...)
	}
	return json.Marshal(doc)
}

// String summarizes the trace for logs.
func (t *Trace) String() string {
	if t == nil {
		return "trace(nil)"
	}
	return fmt.Sprintf("trace(%d events)", t.Len())
}
