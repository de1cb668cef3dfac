package obs

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// testTime returns a fixed base instant; trace tests advance from it
// explicitly so recorded orders are deterministic.
func testTime() time.Time {
	return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
}

func TestTraceSpansAndStart(t *testing.T) {
	tr := NewTracer(8, nil)
	base := testTime()
	h := tr.Trace("req-1")
	h.Span("wait-initial-responses", base.Add(10*time.Millisecond), 4*time.Second)
	h.Event("bdn-ack", base, A("bdn", "gridservicelocator.org"))
	v, ok := tr.Get("req-1")
	if !ok {
		t.Fatal("trace not found")
	}
	if !v.Start.Equal(base) {
		t.Errorf("Start = %v, want earliest recorded instant %v", v.Start, base)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(v.Spans))
	}
	// Views are chronological, not insertion-ordered: the ack (recorded
	// second, timestamped first) leads.
	if v.Spans[0].Name != "bdn-ack" || v.Spans[1].Name != "wait-initial-responses" {
		t.Errorf("span order wrong: %+v", v.Spans)
	}
	if v.Spans[0].Dur != 0 || v.Spans[1].Dur != 4*time.Second {
		t.Errorf("span durations wrong: %+v", v.Spans)
	}
	// Same id returns the same trace.
	if tr.Trace("req-1") != h {
		t.Error("same id produced a new trace")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	h := tr.Trace("x") // must not panic
	h.Span("p", testTime(), time.Second)
	h.Event("e", testTime())
	if h.ID() != "" || tr.Len() != 0 {
		t.Error("nil tracer recorded something")
	}
	if _, ok := tr.Get("x"); ok {
		t.Error("nil tracer returned a trace")
	}
	if tr.Snapshot() != nil {
		t.Error("nil tracer snapshot non-nil")
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(3, nil)
	for i := 0; i < 5; i++ {
		tr.Trace(fmt.Sprintf("req-%d", i)).Event("e", testTime())
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for _, gone := range []string{"req-0", "req-1"} {
		if _, ok := tr.Get(gone); ok {
			t.Errorf("%s should have been evicted", gone)
		}
	}
	snap := tr.Snapshot()
	if len(snap) != 3 || snap[0].ID != "req-2" || snap[2].ID != "req-4" {
		t.Errorf("snapshot order wrong: %+v", snap)
	}
}

// TestTraceRingConcurrent hammers the ring and the span log from concurrent
// recorders (with id collisions across workers, so get-or-create and
// eviction interleave) while readers snapshot, look up and read the log the
// way a scrape does, under -race. Afterwards the ring must be exactly full
// and every retained trace reachable by id.
func TestTraceRingConcurrent(t *testing.T) {
	const (
		workers   = 8
		perWorker = 200
		capacity  = 16
	)
	tr := NewTracer(capacity, Nop())
	tr.KeepSpans(64)
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, v := range tr.Snapshot() {
					if v.ID == "" || len(v.Spans) == 0 && !v.Start.IsZero() {
						t.Errorf("inconsistent trace snapshot: %+v", v)
						return
					}
				}
				tr.Get("w0-5")
				log := tr.SpansSince(0)
				for i := 1; i < len(log); i++ {
					if log[i].Seq != log[i-1].Seq+1 {
						t.Errorf("span log seqs %d then %d: a scrape would see a gap", log[i-1].Seq, log[i].Seq)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			base := testTime()
			for i := 0; i < perWorker; i++ {
				// Worker pairs share ids, so two goroutines race to create
				// and append to the same trace.
				h := tr.Trace(fmt.Sprintf("w%d-%d", w%4, i))
				h.Event("request-issue", base)
				h.Span("ping-measurement", base, time.Millisecond, A("worker", "x"))
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if got := tr.Len(); got != capacity {
		t.Errorf("Len = %d, want full ring %d", got, capacity)
	}
	for _, v := range tr.Snapshot() {
		if _, ok := tr.Get(v.ID); !ok {
			t.Errorf("retained trace %s not indexed", v.ID)
		}
	}
}

// TestTraceByIDIndexBounded proves eviction deletes evicted ids from the byID
// index: after heavy churn the index holds exactly the ring's members, so a
// long-lived tracer cannot leak one map entry per request ever traced.
func TestTraceByIDIndexBounded(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity, nil)
	for i := 0; i < 100*capacity; i++ {
		tr.Trace(fmt.Sprintf("req-%d", i)).Event("e", testTime())
	}
	tr.mu.Lock()
	indexed := len(tr.byID)
	ringed := tr.ring.Len()
	tr.mu.Unlock()
	if indexed != ringed || indexed != capacity {
		t.Fatalf("byID holds %d entries for a ring of %d (capacity %d); evicted ids leaked",
			indexed, ringed, capacity)
	}
	for i := 0; i < 100*capacity-capacity; i++ {
		if _, ok := tr.Get(fmt.Sprintf("req-%d", i)); ok {
			t.Fatalf("evicted trace req-%d still reachable via byID", i)
		}
	}
}

// TestSpanLogSince pins what a scrape reads from the tracer: every span in
// record order across traces, numbered so a reader can resume after the last
// one it saw, bounded to the newest KeepSpans many, and left in place.
func TestSpanLogSince(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.Trace("a").Event("e1", testTime())
	if got := tr.SpansSince(0); got != nil {
		t.Fatalf("a tracer without a span log returned %+v", got)
	}
	tr = NewTracer(8, nil)
	tr.KeepSpans(3)
	for i, id := range []string{"a", "b", "a", "c"} {
		tr.Trace(id).Event(fmt.Sprintf("e%d", i+1), testTime())
	}
	got := tr.SpansSince(0)
	if len(got) != 3 || got[0].Seq != 2 || got[0].TraceID != "b" || got[2].Seq != 4 || got[2].Span.Name != "e4" {
		t.Fatalf("SpansSince(0) = %+v, want seqs 2-4 (e1 evicted)", got)
	}
	if again := tr.SpansSince(3); len(again) != 1 || again[0].TraceID != "c" {
		t.Fatalf("SpansSince(3) = %+v, want the one span of c", again)
	}
}

// TestRecordSpanAllocFree pins the record path at zero allocations in steady
// state with the span log on: keeping spans for scrapes must stay invisible
// on the broker's publish path.
func TestRecordSpanAllocFree(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.KeepSpans(64)
	h := tr.Trace("trace-id")
	at := testTime()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Event("alloc", at)
	})
	if allocs != 0 {
		t.Fatalf("recording a span allocates %.1f times per op, want 0", allocs)
	}
}

// TestRecordSpanInfoLoggerAllocFree: a tracer logging to an Info-level logger
// drops every span's debug line, so recording must not build one.
func TestRecordSpanInfoLoggerAllocFree(t *testing.T) {
	tr := NewTracer(8, NewLogger(io.Discard, slog.LevelInfo))
	h := tr.Trace("trace-id")
	at := testTime()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Span("alloc", at, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("recording a span under an Info logger allocates %.1f times per op, want 0", allocs)
	}
}
