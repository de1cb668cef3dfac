package collect

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
)

func newTestCollector(t *testing.T, cfg Config) *Collector {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func spanDoc(node string, offset time.Duration, traceID, name string, at time.Time) *plane.Scrape {
	return &plane.Scrape{
		Node:   node,
		Offset: offset,
		Spans:  []obs.SpanRecord{{TraceID: traceID, Span: obs.SpanView{Name: name, At: at}}},
	}
}

// TestIngestAlignsAcrossSkewedClocks feeds spans whose raw timestamps are
// misordered by large clock offsets and asserts the assembled trace comes
// back in offset-corrected causal order.
func TestIngestAlignsAcrossSkewedClocks(t *testing.T) {
	c := newTestCollector(t, Config{})
	base := time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC)

	// True order: issue (t+0, node fast by +400ms), inject (t+100ms, node
	// slow by -300ms), respond (t+200ms, honest clock). Raw timestamps
	// reverse the first two.
	c.ingest(spanDoc("requester", 400*time.Millisecond, "t1", "request-issue", base.Add(400*time.Millisecond)), "")
	c.ingest(spanDoc("bdn0", -300*time.Millisecond, "t1", "bdn-inject", base.Add(100*time.Millisecond-300*time.Millisecond)), "")
	c.ingest(spanDoc("broker-1", 0, "t1", "broker-respond", base.Add(200*time.Millisecond)), "")

	tr, ok := c.Trace("t1")
	if !ok {
		t.Fatal("trace t1 not assembled")
	}
	want := []string{"request-issue", "bdn-inject", "broker-respond"}
	if len(tr.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), len(want))
	}
	for i, s := range tr.Spans {
		if s.Name != want[i] {
			t.Fatalf("aligned order = %v, want %v", spanNames(tr), want)
		}
		if !s.AtAligned.Equal(base.Add(time.Duration(i) * 100 * time.Millisecond)) {
			t.Fatalf("span %s aligned to %v, want %v", s.Name, s.AtAligned,
				base.Add(time.Duration(i)*100*time.Millisecond))
		}
	}
	if len(tr.Nodes) != 3 {
		t.Fatalf("trace nodes = %v, want 3", tr.Nodes)
	}
}

func spanNames(tr TraceInfo) []string {
	out := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		out[i] = s.Name
	}
	return out
}

// TestTraceRingEviction fills the bounded trace ring past capacity and
// asserts the oldest trace is fully forgotten — listing, lookup and count.
func TestTraceRingEviction(t *testing.T) {
	c := newTestCollector(t, Config{traceCap: 2})
	at := time.Unix(1000, 0)
	c.ingest(spanDoc("n", 0, "t1", "a", at), "")
	c.ingest(spanDoc("n", 0, "t2", "b", at), "")
	c.ingest(spanDoc("n", 0, "t3", "c", at), "")

	if n := c.TraceCount(); n != 2 {
		t.Fatalf("TraceCount = %d, want 2", n)
	}
	if _, ok := c.Trace("t1"); ok {
		t.Fatal("evicted trace t1 still retrievable")
	}
	sums := c.Traces()
	if len(sums) != 2 || sums[0].ID != "t2" || sums[1].ID != "t3" {
		t.Fatalf("summaries = %+v, want t2 then t3", sums)
	}
	// A new span for the evicted id re-creates it (and evicts t2).
	c.ingest(spanDoc("n", 0, "t1", "a2", at), "")
	if _, ok := c.Trace("t2"); ok {
		t.Fatal("t2 should have been evicted on t1's return")
	}
}

// TestFederatedMetrics merges two nodes' snapshots with the collector's own
// registry and checks the node label discipline.
func TestFederatedMetrics(t *testing.T) {
	c := newTestCollector(t, Config{})
	c.ingest(&plane.Scrape{
		Node: "broker-1", At: time.Unix(2000, 0),
		Families: []obs.ExportFamily{
			// No node label: federation must add node="broker-1".
			{Name: "narada_broker_links", Help: "Links.", Kind: "gauge",
				Series: []obs.ExportSeries{{Gauge: 4}}},
		},
	}, "")
	c.ingest(&plane.Scrape{
		Node: "broker-2", At: time.Unix(2000, 0),
		Families: []obs.ExportFamily{
			// Already labelled (per-node registries stamp identity): kept as-is.
			{Name: "narada_broker_links", Help: "Links.", Kind: "gauge",
				Series: []obs.ExportSeries{{Labels: []obs.Label{obs.L("node", "broker-2")}, Gauge: 7}}},
		},
	}, "")

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		`narada_broker_links{node="broker-1"} 4`,
		`narada_broker_links{node="broker-2"} 7`,
		`narada_collect_scrapes_total{node="obscollect",result="ok"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("federated exposition missing %q:\n%s", want, body)
		}
	}
	if strings.Count(body, "# TYPE narada_broker_links gauge") != 1 {
		t.Errorf("family narada_broker_links not merged once:\n%s", body)
	}
}

// TestFabricView checks per-node extraction of load gauges and discovery
// latency percentiles.
func TestFabricView(t *testing.T) {
	c := newTestCollector(t, Config{})
	c.ingest(&plane.Scrape{
		Node: "broker-1", Offset: 250 * time.Millisecond, At: time.Unix(2000, 0),
		Families: []obs.ExportFamily{
			{Name: "narada_broker_egress_queue_depth", Kind: "gauge",
				Series: []obs.ExportSeries{{Gauge: 3}, {Gauge: 2}}},
			{Name: "narada_broker_egress_dropped_total", Kind: "counter",
				Series: []obs.ExportSeries{{Counter: 5}}},
			{Name: "narada_broker_links", Kind: "gauge", Series: []obs.ExportSeries{{Gauge: 4}}},
			{Name: "narada_broker_clients", Kind: "gauge", Series: []obs.ExportSeries{{Gauge: 9}}},
		},
	}, "")
	c.ingest(&plane.Scrape{
		Node: "requester", At: time.Unix(2000, 0),
		Families: []obs.ExportFamily{
			{Name: "narada_discovery_total_seconds", Kind: "histogram",
				Series: []obs.ExportSeries{{
					Bounds:  []float64{0.1, 1},
					Buckets: []uint64{8, 2, 0},
					Sum:     1.5, Count: 10,
				}}},
		},
	}, "")

	view := c.Fabric()
	if len(view.Nodes) != 2 {
		t.Fatalf("fabric nodes = %+v, want 2", view.Nodes)
	}
	b := view.Nodes[0]
	if b.Name != "broker-1" || b.EgressDepth != 5 || b.EgressDropped != 5 ||
		b.Links != 4 || b.Clients != 9 || b.ClockOffsetMs != 250 {
		t.Fatalf("broker entry = %+v", b)
	}
	r := view.Nodes[1]
	if r.Discovery == nil || r.Discovery.Count != 10 {
		t.Fatalf("requester entry = %+v", r)
	}
	// Rank 5 of 10 falls mid-way through the 8-strong [0, 0.1) bucket.
	if p50 := r.Discovery.P50; p50 <= 0 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within (0, 0.1]", p50)
	}
	if p99 := r.Discovery.P99; p99 <= 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v, want within (0.1, 1]", p99)
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	buckets := []uint64{10, 10, 0, 5} // 25 observations, 5 in +Inf
	cases := []struct {
		q    float64
		want float64
	}{
		{0.2, 0.5}, // rank 5, halfway through [0,1)
		{0.4, 1},   // rank 10, exactly the first bound
		{0.8, 2},   // rank 20: the empty (2,4] bucket collapses to its bound... rank 20 ends bucket 2
		{0.99, 4},  // lands in +Inf: clamped to the last finite bound
	}
	for _, tc := range cases {
		if got := histQuantile(tc.q, bounds, buckets); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := histQuantile(0.5, nil, nil); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
	if got := histQuantile(0.5, bounds, []uint64{1, 2}); got != 0 {
		t.Errorf("malformed buckets: got %v, want 0", got)
	}
}

// TestCollectorOverHTTP exercises the real scrape path: a node's plane
// serving /telemetry in, assembled state out, and an endpoint that answers
// garbage counted without disturbing the node watched beside it.
func TestCollectorOverHTTP(t *testing.T) {
	c := newTestCollector(t, Config{ScrapeInterval: 10 * time.Millisecond, manual: true})
	p, err := plane.Start(plane.Config{
		Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0"}, Node: "broker-1", Embedded: true,
		Offset: func() time.Duration { return 10 * time.Millisecond },
	})
	if err != nil {
		t.Fatalf("plane: %v", err)
	}
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(p.Close)
	p.Handle().Tracer.Trace("http-1").Event("broker-respond", time.Unix(3000, 0))
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("not a scrape document"))
	}))
	defer garbage.Close()

	c.Watch(strings.TrimPrefix(garbage.URL, "http://"))
	c.Watch(p.Addr())
	c.Watch(p.Addr()) // a second Watch of one address is a no-op

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := c.Trace("http-1"); ok && c.scrapesBad.Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span never ingested or garbage never counted (bad scrapes %d)", c.scrapesBad.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr, _ := c.Trace("http-1")
	if s := tr.Spans[0]; s.Node != "broker-1" || !s.AtAligned.Equal(time.Unix(3000, 0).Add(-10*time.Millisecond)) {
		t.Fatalf("span = %+v, want broker-1's, aligned by its 10ms offset", s)
	}
	if c.NodeCount() != 1 || len(c.targets) != 2 {
		t.Fatalf("NodeCount = %d over %d targets, want 1 over 2", c.NodeCount(), len(c.targets))
	}
}

func TestProberConfigValidation(t *testing.T) {
	c := newTestCollector(t, Config{manual: true})
	if _, err := c.NewProber(ProbeConfig{BDNAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := c.NewProber(ProbeConfig{Interval: time.Second}); err == nil {
		t.Error("missing BDN addrs accepted")
	}
}

// TestTimeParametersShareOneError sends an unparseable time to each of the
// five time parameters and expects the one 400 body they share.
func TestTimeParametersShareOneError(t *testing.T) {
	c := newTestCollector(t, Config{manual: true})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var first string
	for _, path := range []string{
		"/events?since=yesterday",
		"/events?until=yesterday",
		"/topology?at=yesterday",
		"/query?metric=m&since=yesterday",
		"/profiles?since=yesterday",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
		if first == "" {
			first = string(body)
		}
		if string(body) != first || !strings.Contains(first, "RFC3339") {
			t.Fatalf("GET %s: body %q, want the shared %q", path, body, first)
		}
	}
}
