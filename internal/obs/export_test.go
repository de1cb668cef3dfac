package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func sampleSpans() []SpanRecord {
	at := time.Unix(1120176000, 123456789).UTC()
	return []SpanRecord{
		{TraceID: "t1", Span: SpanView{Name: "request-issue", At: at, Dur: 40 * time.Millisecond,
			Attrs: []Attr{{Key: "node", Value: "requester"}, {Key: "via", Value: "bdn"}}}},
		{TraceID: "t1", Span: SpanView{Name: "bdn-ack", At: at.Add(50 * time.Millisecond)}},
		{TraceID: "t2", Span: SpanView{Name: "broker-respond", At: at.Add(time.Second),
			Attrs: []Attr{{Key: "to", Value: "127.0.0.1:4000"}}}},
	}
}

func TestSpanPacketRoundTrip(t *testing.T) {
	spans := sampleSpans()
	pkt, err := DecodeExportPacket(EncodeSpanPacket("broker-umn", -130*time.Millisecond, spans))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pkt.Node != "broker-umn" || pkt.Offset != -130*time.Millisecond {
		t.Fatalf("header = %q %v", pkt.Node, pkt.Offset)
	}
	if pkt.Families != nil || len(pkt.Spans) != len(spans) {
		t.Fatalf("got %d spans (families %v), want %d", len(pkt.Spans), pkt.Families, len(spans))
	}
	for i, got := range pkt.Spans {
		want := spans[i]
		if got.TraceID != want.TraceID || got.Span.Name != want.Span.Name ||
			!got.Span.At.Equal(want.Span.At) || got.Span.Dur != want.Span.Dur ||
			len(got.Span.Attrs) != len(want.Span.Attrs) {
			t.Fatalf("span %d = %+v, want %+v", i, got, want)
		}
		for j, a := range got.Span.Attrs {
			if a != want.Span.Attrs[j] {
				t.Fatalf("span %d attr %d = %+v, want %+v", i, j, a, want.Span.Attrs[j])
			}
		}
	}
}

func sampleFamilies() []ExportFamily {
	return []ExportFamily{
		{Name: "narada_a_total", Help: "A.", Kind: "counter", Series: []ExportSeries{
			{Labels: []Label{{Key: "node", Value: "b1"}, {Key: "outcome", Value: "ok"}}, Counter: 42},
			{Labels: []Label{{Key: "node", Value: "b1"}, {Key: "outcome", Value: "error"}}, Counter: 7},
		}},
		{Name: "narada_b", Help: "B.", Kind: "gauge", Series: []ExportSeries{
			{Labels: []Label{{Key: "node", Value: "b1"}}, Gauge: -2.5},
		}},
		{Name: "narada_c_seconds", Help: "C.", Kind: "histogram", Series: []ExportSeries{
			{Labels: []Label{{Key: "node", Value: "b1"}},
				Bounds:  []float64{0.01, 0.1, 1},
				Buckets: []uint64{3, 2, 1, 1}, // non-cumulative, +Inf last
				Sum:     1.75, Count: 7},
		}},
	}
}

func familiesEqual(t *testing.T, got, want []ExportFamily) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d families, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Help != w.Help || g.Kind != w.Kind || len(g.Series) != len(w.Series) {
			t.Fatalf("family %d = %+v, want %+v", i, g, w)
		}
		for j := range w.Series {
			gs, ws := g.Series[j], w.Series[j]
			if gs.Counter != ws.Counter || gs.Gauge != ws.Gauge || gs.Sum != ws.Sum ||
				gs.Count != ws.Count || len(gs.Labels) != len(ws.Labels) ||
				len(gs.Bounds) != len(ws.Bounds) || len(gs.Buckets) != len(ws.Buckets) {
				t.Fatalf("family %d series %d = %+v, want %+v", i, j, gs, ws)
			}
			for k := range ws.Labels {
				if gs.Labels[k] != ws.Labels[k] {
					t.Fatalf("family %d series %d label %d mismatch", i, j, k)
				}
			}
			for k := range ws.Bounds {
				if gs.Bounds[k] != ws.Bounds[k] {
					t.Fatalf("family %d series %d bound %d mismatch", i, j, k)
				}
			}
			for k := range ws.Buckets {
				if gs.Buckets[k] != ws.Buckets[k] {
					t.Fatalf("family %d series %d bucket %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestMetricsPacketRoundTrip(t *testing.T) {
	fams := sampleFamilies()
	at := time.Unix(1120176060, 0).UTC()
	pkts := EncodeMetricsPackets("b1", 75*time.Millisecond, at, 7, fams, 0)
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(pkts))
	}
	pkt, err := DecodeExportPacket(pkts[0])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pkt.Node != "b1" || pkt.Offset != 75*time.Millisecond || !pkt.MetricsAt.Equal(at) {
		t.Fatalf("header = %q %v %v", pkt.Node, pkt.Offset, pkt.MetricsAt)
	}
	if pkt.Seq != 7 {
		t.Fatalf("seq = %d, want 7", pkt.Seq)
	}
	familiesEqual(t, pkt.Families, fams)
}

// TestMetricsPacketChunking forces the snapshot over multiple datagrams and
// checks every family survives, in order, with no packet (except a lone
// oversized family) exceeding the byte budget.
func TestMetricsPacketChunking(t *testing.T) {
	var fams []ExportFamily
	for i := 0; i < 40; i++ {
		f := sampleFamilies()[i%3]
		f.Name = f.Name + string(rune('a'+i%26))
		fams = append(fams, f)
	}
	const maxBytes = 512
	pkts := EncodeMetricsPackets("chunky", 0, time.Unix(0, 0), 1, fams, maxBytes)
	if len(pkts) < 2 {
		t.Fatalf("got %d packets, want several", len(pkts))
	}
	var got []ExportFamily
	for i, raw := range pkts {
		pkt, err := DecodeExportPacket(raw)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if len(pkt.Families) == 0 {
			t.Fatalf("packet %d carries no families", i)
		}
		if len(raw) > maxBytes && len(pkt.Families) > 1 {
			t.Fatalf("packet %d is %d bytes with %d families; only a lone family may exceed %d",
				i, len(raw), len(pkt.Families), maxBytes)
		}
		got = append(got, pkt.Families...)
	}
	familiesEqual(t, got, fams)
}

func TestDecodeExportPacketRejectsGarbage(t *testing.T) {
	good := EncodeSpanPacket("n", 0, sampleSpans())
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad version": {0xb8, 0x7f, 0x01},
		"bad kind":    {0xb8, exportVersion, 0x09, 0x01, 'n', 0x00},
		"truncated":   good[:len(good)-3],
	}
	for name, b := range cases {
		if _, err := DecodeExportPacket(b); err == nil {
			t.Errorf("%s: decode accepted %x", name, b)
		}
	}
}

// blockingSink blocks every Write until released — the shape of a wedged
// network path (or a collector that is simply gone while the kernel buffer
// backs up).
type blockingSink struct {
	release chan struct{}
	once    sync.Once
}

func (s *blockingSink) Write(p []byte) (int, error) {
	<-s.release
	return len(p), nil
}

func (s *blockingSink) Release() { s.once.Do(func() { close(s.release) }) }

// TestExporterNeverBlocksWithoutCollector is the drop-safety guarantee: with
// the sink wedged solid, RecordSpan stays non-blocking, the bounded buffer
// overflows into the drop counter, and nothing deadlocks.
func TestExporterNeverBlocksWithoutCollector(t *testing.T) {
	sink := &blockingSink{release: make(chan struct{})}
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1",
		spanBuffer: 8, maxBatch: 4, flushInterval: time.Millisecond,
	}, sink)
	defer func() {
		sink.Release()
		_ = e.Close()
	}()

	const n = 5000
	start := time.Now()
	sv := SpanView{Name: "e", At: start}
	for i := 0; i < n; i++ {
		e.RecordSpan("trace", sv)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("recording %d spans against a wedged sink took %v", n, elapsed)
	}
	// Everything beyond the buffer and the one in-flight batch must have hit
	// the drop counter.
	if dropped := e.Dropped(); dropped < n-64 {
		t.Fatalf("dropped = %d, want nearly %d", dropped, n)
	}
}

// TestExporterShipsSpansAndFinalSnapshot covers the happy path: spans batch
// out, Close flushes the tail and a last metrics snapshot.
func TestExporterShipsSpansAndFinalSnapshot(t *testing.T) {
	var mu sync.Mutex
	var packets [][]byte
	capture := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		packets = append(packets, append([]byte(nil), p...))
		return len(p), nil
	})
	reg := NewRegistry()
	reg.Counter("narada_demo_total", "Demo.", L("node", "b1")).Add(9)
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1", Registry: reg,
		Offset:          func() time.Duration { return 20 * time.Millisecond },
		MetricsInterval: time.Hour, // only the final flush ships
	}, capture)

	const n = 10
	for i := 0; i < n; i++ {
		e.RecordSpan("t1", SpanView{Name: "ev", At: time.Unix(int64(i), 0)})
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	spans, sawDemo := 0, false
	for _, raw := range packets {
		pkt, err := DecodeExportPacket(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if pkt.Node != "b1" || pkt.Offset != 20*time.Millisecond {
			t.Fatalf("packet header = %q %v", pkt.Node, pkt.Offset)
		}
		spans += len(pkt.Spans)
		for _, f := range pkt.Families {
			if f.Name == "narada_demo_total" && f.Series[0].Counter == 9 {
				sawDemo = true
			}
		}
	}
	if spans != n {
		t.Fatalf("shipped %d spans, want %d", spans, n)
	}
	if !sawDemo {
		t.Fatal("final metrics snapshot never shipped")
	}
	if e.Sent() != n || e.Dropped() != 0 {
		t.Fatalf("sent = %d dropped = %d, want %d / 0", e.Sent(), e.Dropped(), n)
	}
	if e.RecordSpan("t1", SpanView{}); false { // post-Close records must not panic
		t.Fatal("unreachable")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestExporterSinkErrorsCounted: datagram write failures land on the error
// counter and never propagate to callers.
func TestExporterSinkErrorsCounted(t *testing.T) {
	fail := writerFunc(func(p []byte) (int, error) { return 0, errors.New("icmp unreachable") })
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1", flushInterval: time.Millisecond,
	}, fail)
	e.RecordSpan("t", SpanView{Name: "x"})
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if v := e.packetsErr.Value(); v == 0 {
		t.Fatal("sink failure not counted")
	}
}

// TestRecordSpanAllocFree pins the record fast path at zero allocations —
// the exporter must stay invisible on the broker's publish path.
func TestRecordSpanAllocFree(t *testing.T) {
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1", spanBuffer: 1 << 16,
		flushInterval: time.Hour, maxBatch: 1 << 20, // hold everything: measure enqueue only
	}, writerFunc(func(p []byte) (int, error) { return len(p), nil }))
	defer e.Close()
	sv := SpanView{Name: "alloc", At: time.Unix(0, 0), Attrs: []Attr{{Key: "k", Value: "v"}}}
	allocs := testing.AllocsPerRun(1000, func() {
		e.RecordSpan("trace-id", sv)
	})
	if allocs != 0 {
		t.Fatalf("RecordSpan allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkRecordSpan(b *testing.B) {
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1", spanBuffer: 64, flushInterval: time.Millisecond,
	}, writerFunc(func(p []byte) (int, error) { return len(p), nil }))
	defer e.Close()
	sv := SpanView{Name: "bench", At: time.Unix(0, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RecordSpan("trace-id", sv)
	}
}
