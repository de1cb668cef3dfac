package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"
)

// DefaultTraceCapacity is the default size of the recent-trace ring.
const DefaultTraceCapacity = 128

// DefaultSpanLog is how many recorded spans a tracer that keeps a span log
// retains for scrapes. A sampled message leaves one span per stage on a
// broker — four at flows-smoke (publish, match, a flush per subscriber) — so
// at its per-topic budget of 50 sampled messages a second the log covers
// twenty 1-second scrape intervals.
const DefaultSpanLog = 4096

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanView is one recorded span or point event of a trace. A zero Dur marks
// a point event (e.g. "response received"); a non-zero Dur a phase span.
type SpanView struct {
	Name  string        `json:"name"`
	At    time.Time     `json:"at"`
	Dur   time.Duration `json:"durNs,omitempty"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// TraceView is the queryable snapshot of one trace.
type TraceView struct {
	ID    string     `json:"id"`
	Start time.Time  `json:"start"`
	Spans []SpanView `json:"spans"`
}

// Trace accumulates the spans and events of one request. Obtained from a
// Tracer; all methods are safe for concurrent use and safe on a nil receiver
// (uninstrumented deployments pass a nil Tracer through unchanged).
type Trace struct {
	id string
	t  *Tracer

	mu    sync.Mutex
	start time.Time
	spans []SpanView
}

// SpanRecord is one recorded span with the trace (request UUID) it belongs
// to and its place in the tracer's span log — the unit a scrape carries.
type SpanRecord struct {
	Seq     uint64   `json:"seq"`
	TraceID string   `json:"trace"`
	Span    SpanView `json:"span"`
}

// Tracer records per-request traces keyed by the request UUID, retaining the
// most recent capacity traces in a FIFO ring for /debug/traces. A nil
// *Tracer is a valid no-op recorder.
type Tracer struct {
	logger *slog.Logger

	mu      sync.Mutex
	byID    map[string]*Trace
	ring    *Ring[*Trace]     // insertion order; oldest evicted first
	log     *Ring[SpanRecord] // nil unless KeepSpans
	spanSeq uint64            // last SpanRecord.Seq assigned
}

// NewTracer returns a tracer retaining the last capacity traces
// (capacity <= 0 uses DefaultTraceCapacity). A non-nil logger receives one
// structured debug record per span/event as it is recorded.
func NewTracer(capacity int, logger *slog.Logger) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{logger: logger, byID: make(map[string]*Trace, capacity), ring: NewRing[*Trace](capacity)}
}

// KeepSpans makes the tracer log every span it records, the newest n of
// them, for SpansSince — what a telemetry plane does when a collector can
// read it. Call it before anything records; a no-op on a nil tracer.
func (t *Tracer) KeepSpans(n int) {
	if t != nil {
		t.log = NewRing[SpanRecord](n)
	}
}

// SpansSince returns the logged spans with a sequence number above seq, in
// sequence order, leaving the log as it was (nil without KeepSpans).
func (t *Tracer) SpansSince(seq uint64) []SpanRecord {
	if t == nil || t.log == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	t.log.Each(func(r SpanRecord) {
		if r.Seq > seq {
			out = append(out, r)
		}
	})
	return out
}

// Trace returns the trace for id, creating it (and evicting the oldest
// trace if the ring is full) on first sight. Returns nil on a nil tracer.
func (t *Tracer) Trace(id string) *Trace {
	if t == nil || id == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.byID[id]
	if tr == nil {
		tr = &Trace{id: id, t: t}
		if old, evicted := t.ring.Push(tr); evicted {
			delete(t.byID, old.id)
		}
		t.byID[id] = tr
	}
	return tr
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Get returns a snapshot of the trace for id.
func (t *Tracer) Get(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	t.mu.Lock()
	tr := t.byID[id]
	t.mu.Unlock()
	if tr == nil {
		return TraceView{}, false
	}
	return tr.view(), true
}

// Snapshot returns snapshots of every retained trace, oldest first.
func (t *Tracer) Snapshot() []TraceView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*Trace, 0, t.ring.Len())
	t.ring.Each(func(tr *Trace) { traces = append(traces, tr) })
	t.mu.Unlock()
	out := make([]TraceView, len(traces))
	for i, tr := range traces {
		out[i] = tr.view()
	}
	return out
}

// Handler serves the retained traces as JSON: the full ring, or one trace
// with ?id=<uuid>.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id := r.URL.Query().Get("id"); id != "" {
			v, ok := t.Get(id)
			if !ok {
				http.Error(w, `{"error":"trace not found"}`, http.StatusNotFound)
				return
			}
			_ = enc.Encode(v)
			return
		}
		_ = enc.Encode(t.Snapshot())
	})
}

// ID returns the trace's request UUID ("" on nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Span records a phase span that started at `at` and lasted d.
func (tr *Trace) Span(name string, at time.Time, d time.Duration, attrs ...Attr) {
	tr.record(SpanView{Name: name, At: at, Dur: d, Attrs: attrs})
}

// Event records a point event at time `at`.
func (tr *Trace) Event(name string, at time.Time, attrs ...Attr) {
	tr.record(SpanView{Name: name, At: at, Attrs: attrs})
}

func (tr *Trace) record(sv SpanView) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.start.IsZero() || sv.At.Before(tr.start) {
		tr.start = sv.At
	}
	tr.spans = append(tr.spans, sv)
	tr.mu.Unlock()
	if t := tr.t; t.log != nil {
		// The sequence number and the log slot are taken together, so a
		// scrape never sees span n+1 without span n.
		t.mu.Lock()
		t.spanSeq++
		t.log.Push(SpanRecord{Seq: t.spanSeq, TraceID: tr.id, Span: sv})
		t.mu.Unlock()
	}
	if lg := tr.t.logger; lg != nil {
		args := make([]any, 0, 6+2*len(sv.Attrs))
		args = append(args, "trace", tr.id, "span", sv.Name)
		if sv.Dur != 0 {
			args = append(args, "dur", sv.Dur)
		}
		for _, a := range sv.Attrs {
			args = append(args, a.Key, a.Value)
		}
		lg.Debug("trace", args...)
	}
}

func (tr *Trace) view() TraceView {
	tr.mu.Lock()
	spans := append([]SpanView(nil), tr.spans...)
	v := TraceView{ID: tr.id, Start: tr.start}
	tr.mu.Unlock()
	// Chronological order: recorders across a deployment append out of order
	// (a phase span lands at phase end, after the events inside it).
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].At.Before(spans[j].At) })
	v.Spans = spans
	return v
}
