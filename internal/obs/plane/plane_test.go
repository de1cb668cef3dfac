package plane_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/obs/profile"
)

// scrape GETs a plane's /telemetry the way obscollect does.
func scrape(t *testing.T, addr, since string) plane.Scrape {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/telemetry?since=" + url.QueryEscape(since))
	if err != nil {
		t.Fatalf("GET /telemetry: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /telemetry: %s: %s", resp.Status, body)
	}
	var s plane.Scrape
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("decode /telemetry: %v\n%s", err, body)
	}
	return s
}

func family(s plane.Scrape, name string) *obs.ExportFamily {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// TestPlaneLifecycle drives one plane over a real loopback endpoint: a scrape
// carries the node, its metrics and its late-bound flows; the next scrape
// carries only what is newer than the cursor the first one handed back; and
// Close on a plane that has been scraped waits for one more scrape, which
// delivers the span, counter and node_stop recorded just before it.
func TestPlaneLifecycle(t *testing.T) {
	p, err := plane.Start(plane.Config{
		Flags:  plane.Flags{TelemetryAddr: "127.0.0.1:0"},
		Node:   "node-1",
		Offset: func() time.Duration { return 3 * time.Millisecond },
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	h := p.Handle().Scoped("test", "node-1")
	runs := h.Metrics.Counter("narada_plane_test_runs_total", "Test counter.")
	p.SetFlows(func() []obs.FlowSnapshot { return []obs.FlowSnapshot{{Topic: "t/1", PubMsgs: 3}} })
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if p.Addr() == "" {
		t.Fatal("Addr is empty after Serve")
	}

	resp, err := http.Get("http://" + p.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, fam := range []string{"narada_plane_test_runs_total", "narada_process_uptime_seconds"} {
		if !strings.Contains(string(body), "# TYPE "+fam+" ") {
			t.Errorf("/metrics lacks family %s", fam)
		}
	}

	h.Journal.Emit(obs.EventNodeStart, "node-1", "")
	first := scrape(t, p.Addr(), "")
	if first.Node != "node-1" || first.Offset != 3*time.Millisecond || first.Boot == 0 || first.Next == "" {
		t.Errorf("scrape header = node %q offset %v boot %d next %q", first.Node, first.Offset, first.Boot, first.Next)
	}
	if family(first, "narada_plane_test_runs_total") == nil || family(first, "narada_process_uptime_seconds") == nil {
		t.Errorf("scrape lacks the node's families: %+v", first.Families)
	}
	if len(first.Flows) != 1 || first.Flows[0].Topic != "t/1" {
		t.Errorf("scrape flows = %+v, want the late-bound t/1", first.Flows)
	}
	if len(first.Events) != 1 || first.Events[0].Type != obs.EventNodeStart {
		t.Errorf("scrape events = %+v, want node_start", first.Events)
	}
	if again := scrape(t, p.Addr(), first.Next); len(again.Events) != 0 || len(again.Spans) != 0 {
		t.Errorf("a scrape from the cursor repeated events %+v / spans %+v", again.Events, again.Spans)
	}
	if other := scrape(t, p.Addr(), "1.9.9"); len(other.Events) != 1 {
		t.Errorf("a cursor from another boot got events %+v, want all of them again", other.Events)
	}

	h.Tracer.Trace("req-1").Event("before-close", time.Now())
	h.Journal.Emit(obs.EventNodeStop, "node-1", "")
	runs.Add(7)

	closed := make(chan struct{})
	go func() {
		p.Close()
		p.Close() // idempotent
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close of a scraped plane returned before its last scrape")
	case <-time.After(100 * time.Millisecond):
	}
	last := scrape(t, p.Addr(), first.Next)
	<-closed
	if len(last.Spans) != 1 || last.Spans[0].TraceID != "req-1" || last.Spans[0].Span.Name != "before-close" {
		t.Errorf("last scrape spans = %+v, want the span recorded before Close", last.Spans)
	}
	if len(last.Events) != 1 || last.Events[0].Type != obs.EventNodeStop {
		t.Errorf("last scrape events = %+v, want node_stop", last.Events)
	}
	if f := family(last, "narada_plane_test_runs_total"); f == nil || f.Series[0].Counter != 7 {
		t.Errorf("last scrape counter = %+v, want 7", f)
	}
	if _, err := http.Get("http://" + p.Addr() + "/healthz"); err == nil {
		t.Error("telemetry endpoint still answers after Close")
	}
}

// TestNodeAsksForProfiles: a node's -profile-every, and the contention
// kinds its rates turn on, travel in its scrape document for a collector to
// take profiles by; the node keeps none itself and serves no /profiles.
func TestNodeAsksForProfiles(t *testing.T) {
	t.Cleanup(func() { // the rates are process wide; 0 is their default
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	})
	rates := plane.Flags{TelemetryAddr: "127.0.0.1:0", MutexFraction: 5, BlockRate: 1000}
	asks := rates
	asks.ProfileEvery = 30 * time.Second
	p, err := plane.Start(plane.Config{Flags: asks, Node: "asks", Embedded: true})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	s := p.Scrape("") // in process: a scraped plane's Close would wait for one more
	if want := []profile.Kind{profile.KindMutex, profile.KindBlock}; s.ProfileEvery != 30*time.Second || !reflect.DeepEqual(s.Contention, want) {
		t.Errorf("scrape asks for profiles every %v with %v, want 30s with %v", s.ProfileEvery, s.Contention, want)
	}
	resp, err := http.Get("http://" + p.Addr() + "/profiles")
	if err != nil {
		t.Fatalf("GET /profiles: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /profiles = %d, want 404", resp.StatusCode)
	}

	quiet, err := plane.Start(plane.Config{Flags: rates, Node: "quiet", Embedded: true})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer quiet.Close()
	if s := quiet.Scrape(""); s.ProfileEvery != 0 || s.Contention != nil {
		t.Errorf("a node without -profile-every asks for profiles every %v with %v", s.ProfileEvery, s.Contention)
	}
}

// TestCloseUnscrapedIsImmediate: a plane nobody has scraped — every bench
// child — does not wait for a collector on its way out.
func TestCloseUnscrapedIsImmediate(t *testing.T) {
	p, err := plane.Start(plane.Config{Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0"}, Node: "quiet"})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	start := time.Now()
	p.Close()
	if took := time.Since(start); took >= 50*time.Millisecond {
		t.Fatalf("Close of a never-scraped plane took %v, want < 50ms", took)
	}
}

// TestScrapeCarriesNonFiniteGauges: a GaugeFunc may return NaN or ±Inf,
// which encoding/json refuses; the document /telemetry marshals must still
// encode, and the values must decode as themselves.
func TestScrapeCarriesNonFiniteGauges(t *testing.T) {
	p, err := plane.Start(plane.Config{Node: "odd", Embedded: true})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()
	reg := p.Handle().Metrics
	for name, v := range map[string]float64{"nan": math.NaN(), "pos": math.Inf(1), "neg": math.Inf(-1), "one": 1.5} {
		v := v
		reg.GaugeFunc("narada_plane_test_odd", "Odd values.", func() float64 { return v }, obs.L("v", name))
	}
	body, err := json.Marshal(p.Scrape(""))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var s plane.Scrape
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	f := family(s, "narada_plane_test_odd")
	if f == nil || len(f.Series) != 4 {
		t.Fatalf("family = %+v, want 4 series", f)
	}
	got := map[string]float64{}
	for _, s := range f.Series {
		got[s.Labels[0].Value] = s.Gauge
	}
	if !math.IsNaN(got["nan"]) || !math.IsInf(got["pos"], 1) || !math.IsInf(got["neg"], -1) || got["one"] != 1.5 {
		t.Fatalf("gauges arrived as %v", got)
	}
}

// TestPlaneVariants pins what the non-default planes leave out: an embedded
// plane carries no process metrics, a borrowed registry is used but never
// put in a scrape, and a metrics-only plane has no tracer or journal.
func TestPlaneVariants(t *testing.T) {
	lent := obs.NewRegistry()
	p, err := plane.Start(plane.Config{Node: "probe", Registry: lent, Embedded: true})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if p.Handle().Metrics != lent {
		t.Error("a lent registry is not the one handed out")
	}
	lent.Counter("narada_plane_test_lent_total", "Lent.").Inc()
	p.Handle().Journal.Emit(obs.EventNodeStop, "probe", "")
	s := p.Scrape("")
	if s.Node != "probe" || len(s.Events) != 1 {
		t.Errorf("borrowed-registry plane's scrape = %+v, want its journal", s)
	}
	if s.Families != nil {
		t.Errorf("a borrowed registry was put in a scrape: %+v", s.Families)
	}
	p.Close()

	p, err = plane.Start(plane.Config{Embedded: true})
	if err != nil {
		t.Fatalf("start embedded: %v", err)
	}
	for _, f := range p.Handle().Metrics.ExportSnapshot() {
		if strings.HasPrefix(f.Name, "narada_process_") || f.Name == "narada_build_info" {
			t.Errorf("embedded plane carries process family %s", f.Name)
		}
	}
	p.Close()

	p, err = plane.Start(plane.Config{Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0"}, MetricsOnly: true})
	if err != nil {
		t.Fatalf("start metrics-only: %v", err)
	}
	defer p.Close()
	if h := p.Handle(); h.Tracer != nil || h.Journal != nil {
		t.Error("metrics-only plane has a tracer or journal")
	}
	if _, err := plane.Start(plane.Config{Flags: plane.Flags{LogLevel: "loud"}}); err == nil {
		t.Error("an unknown log level was accepted")
	}
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for path, want := range map[string]int{
		"/metrics": http.StatusOK, "/healthz": http.StatusOK,
		"/debug/traces": http.StatusNotFound, "/profiles": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + p.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPlaneLeaksNoGoroutines cycles full planes — span log, HTTP endpoint —
// and asserts the process returns to its baseline goroutine
// count: Close waits for everything Start and Serve launched.
func TestPlaneLeaksNoGoroutines(t *testing.T) {
	cycle := func() {
		p, err := plane.Start(plane.Config{
			Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0", ProfileEvery: time.Hour},
			Node:  "leak",
		})
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		if err := p.Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
		p.Handle().Tracer.Trace("r").Event("e", time.Now())
		p.Close()
	}
	count := func() int {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	http.DefaultClient.CloseIdleConnections()
	cycle() // warm up lazy runtime state (netpoller, timer goroutines)
	before := count()
	for i := 0; i < 5; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for after := count(); after > before; after = count() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines grew %d -> %d after 5 plane cycles\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
