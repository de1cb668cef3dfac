package collect

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/obs/profile"
)

// TestCollectorRejectsCorruptScrapes serves malformed /telemetry bodies to
// the real scrape loop and asserts each is counted and dropped without
// stopping it: the valid document served afterwards still reaches the
// series store.
func TestCollectorRejectsCorruptScrapes(t *testing.T) {
	c := newTestCollector(t, Config{ScrapeInterval: 5 * time.Millisecond, manual: true})
	good, err := json.Marshal(plane.Scrape{Node: "b1", Boot: 1, Families: []obs.ExportFamily{
		{Name: "narada_broker_links", Kind: "gauge", Series: []obs.ExportSeries{{Gauge: 4}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := [][]byte{
		good[:len(good)/2],
		[]byte(`{"node":"","boot":1}`),
		[]byte(`{"node":"b1","boot":"one"}`),
		[]byte("complete garbage"),
	}
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if i := int(served.Add(1)) - 1; i < len(corrupt) {
			_, _ = w.Write(corrupt[i])
			return
		}
		_, _ = w.Write(good)
	}))
	defer srv.Close()
	c.Watch(strings.TrimPrefix(srv.URL, "http://"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := c.store.LastGauge("narada_broker_links", "b1", time.Minute, time.Now()); ok && v == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("valid document never ingested after corrupt ones")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.scrapesBad.Value(); got != uint64(len(corrupt)) {
		t.Fatalf("bad-scrape counter = %d, want %d", got, len(corrupt))
	}
}

// FuzzScrape feeds arbitrary bytes through what the collector does with a
// /telemetry body — decode, ingest (twice, as a re-scrape of an unchanged
// node would) — and through every view over the result. The outcome must be
// an error or a bounded state, never a panic.
func FuzzScrape(f *testing.F) {
	at := time.Date(2026, 10, 15, 12, 0, 0, 0, time.UTC)
	good, err := json.Marshal(plane.Scrape{
		Node: "b1", Boot: 7, At: at, Offset: 3 * time.Millisecond, Next: "7.2.1",
		Families: []obs.ExportFamily{
			{Name: "narada_broker_links", Kind: "gauge", Series: []obs.ExportSeries{{Gauge: 2}}},
			{Name: "narada_discovery_total_seconds", Kind: "histogram", Series: []obs.ExportSeries{
				{Bounds: []float64{0.1, 1}, Buckets: []uint64{3, 1, 0}, Sum: 0.9, Count: 4}}},
		},
		Flows:        []obs.FlowSnapshot{{Topic: "t", PubMsgs: 3, DelMsgs: 2}},
		Events:       []obs.Event{{Seq: 1, Type: obs.EventNodeStart, At: at}, {Seq: 2, Type: obs.EventLinkUp, At: at, Subject: "b2"}},
		Spans:        []obs.SpanRecord{{Seq: 1, TraceID: "t1", Span: obs.SpanView{Name: "msg-flush", At: at, Dur: time.Millisecond}}},
		ProfileEvery: 30 * time.Second,
		Contention:   []profile.Kind{profile.KindMutex},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"node":"n","families":[{"name":"h","kind":"histogram","series":[{"bounds":[1,"+Inf"],"buckets":[1]}]}]}`))
	f.Add([]byte(`{"node":"n","families":[{"name":"g","kind":"gauge","series":[{"gauge":"NaN"}]}]}`))
	f.Add([]byte(`{"node":"n","events":[{"Seq":5},{"Seq":1},{"Seq":1}],"spans":[{"seq":9},{"seq":2}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		c := newTestCollector(t, Config{traceCap: 4, eventCap: 8, manual: true})
		doc, err := decodeScrape(body)
		if err != nil {
			return
		}
		c.ingest(doc, "")
		c.ingest(doc, "")
		c.evaluate()
		if n, traces, events := c.NodeCount(), c.TraceCount(), c.EventCount(); n > 2 || traces > 4 || events > 2*8 {
			t.Fatalf("%d nodes, %d traces, %d events from one document: unbounded", n, traces, events)
		}
		for _, tr := range c.Traces() {
			c.Trace(tr.ID)
		}
		c.Fabric()
		c.Flows()
		c.TopologyAt(time.Now(), true)
		if err := obs.WriteFamiliesText(io.Discard, c.federatedFamilies()); err != nil {
			t.Fatal(err)
		}
	})
}
