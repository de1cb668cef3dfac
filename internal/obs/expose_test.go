package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact exposition text for a registry
// covering all metric kinds, so format regressions are caught byte-for-byte.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("narada_broker_frames_total", "Frames received.", L("kind", "publish"), L("broker", "b1"))
	c.Add(7)
	r.Counter("narada_broker_frames_total", "Frames received.", L("kind", "control"), L("broker", "b1")).Add(2)
	g := r.Gauge("narada_broker_links", "Active links.", L("broker", "b1"))
	g.Set(3)
	r.GaugeFunc("narada_ntptime_offset_seconds", "Clock offset.", func() float64 { return -0.004 }, L("node", "b1"))
	r.CounterFunc("narada_dedup_hits_total", "Dedup hits.", func() uint64 { return 41 }, L("cache", "request"))
	h := r.Histogram("narada_discovery_phase_seconds", "Phase latency.", []float64{0.01, 0.1, 1}, L("phase", "ping-measurement"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	const want = `# HELP narada_broker_frames_total Frames received.
# TYPE narada_broker_frames_total counter
narada_broker_frames_total{broker="b1",kind="control"} 2
narada_broker_frames_total{broker="b1",kind="publish"} 7
# HELP narada_broker_links Active links.
# TYPE narada_broker_links gauge
narada_broker_links{broker="b1"} 3
# HELP narada_dedup_hits_total Dedup hits.
# TYPE narada_dedup_hits_total counter
narada_dedup_hits_total{cache="request"} 41
# HELP narada_discovery_phase_seconds Phase latency.
# TYPE narada_discovery_phase_seconds histogram
narada_discovery_phase_seconds_bucket{phase="ping-measurement",le="0.01"} 1
narada_discovery_phase_seconds_bucket{phase="ping-measurement",le="0.1"} 3
narada_discovery_phase_seconds_bucket{phase="ping-measurement",le="1"} 3
narada_discovery_phase_seconds_bucket{phase="ping-measurement",le="+Inf"} 4
narada_discovery_phase_seconds_sum{phase="ping-measurement"} 5.105
narada_discovery_phase_seconds_count{phase="ping-measurement"} 4
# HELP narada_ntptime_offset_seconds Clock offset.
# TYPE narada_ntptime_offset_seconds gauge
narada_ntptime_offset_seconds{node="b1"} -0.004
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionParses walks every emitted line and checks it is a
// syntactically valid Prometheus text-format line: a comment, or
// name{labels} value with a parseable value.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("narada_a_total", "a", L("x", `quote " backslash \ done`)).Add(1)
	r.Gauge("narada_b", "b").Set(4.25)
	r.Histogram("narada_c_seconds", "c", nil).ObserveDuration(0)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name, value, ok := splitSample(line)
		if !ok {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set: %q", line)
			}
			base = name[:i]
		}
		if !validName(base) {
			t.Errorf("invalid metric name %q in line %q", base, line)
		}
		if value != "+Inf" && value != "-Inf" && value != "NaN" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("unparseable value %q in line %q", value, line)
			}
		}
	}
}

// splitSample splits a sample line into its series name (with labels) and
// value, honouring spaces inside quoted label values.
func splitSample(line string) (name, value string, ok bool) {
	inQuotes := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuotes {
				i++
			}
		case '"':
			inQuotes = !inQuotes
		case ' ':
			if !inQuotes {
				return line[:i], line[i+1:], true
			}
		}
	}
	return "", "", false
}

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("narada_x_total", "x").Inc()
	tr := NewTracer(4, nil)
	tr.Trace("req-1").Event("broker-respond", testTime(), A("broker", "b1"))
	mux := NewMuxWith(r, tr, nil)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":               "narada_x_total 1",
		"/healthz":               `"status":"ok"`,
		"/debug/traces":          "broker-respond",
		"/debug/pprof/":          "profile",
		"/debug/traces?id=req-1": "req-1",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body does not contain %q:\n%s", path, want, body)
		}
	}
}

// TestServerShutdownNoLeak serves real traffic, shuts the telemetry server
// down gracefully, and asserts the serve goroutine (and the connections it
// spawned) are gone — the process-exit path must not leak.
func TestServerShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := NewRegistry()
	reg.Counter("narada_x_total", "x").Inc()
	srv, err := ServeWith("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener must be released and the serve goroutine gone.
	if _, err := client.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before serve, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerShutdownEndsWaitingRequests pins that a handler which only waits
// on its request — a CPU profile sampling its window for a collector's
// flight capture — cannot hold Shutdown: the request's context ends first.
func TestServerShutdownEndsWaitingRequests(t *testing.T) {
	entered := make(chan struct{})
	srv, err := ServeWith("127.0.0.1:0", NewRegistry(), nil, map[string]http.Handler{
		"/wait": http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
			close(entered)
			select {
			case <-r.Context().Done():
			case <-time.After(30 * time.Second):
			}
		}),
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.Get("http://" + srv.Addr() + "/wait"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v: it waited out the request instead of ending it", took)
	}
	<-done
}

// TestDebugTracesByID pins the single-trace lookup: ?id= returns exactly that
// trace, and an unknown id is a JSON 404.
func TestDebugTracesByID(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.Trace("req-a").Event("bdn-ack", testTime(), A("requester", "n1"))
	tr.Trace("req-b").Event("broker-respond", testTime())
	srv := httptest.NewServer(NewMuxWith(nil, tr, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/traces?id=req-a")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v TraceView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if v.ID != "req-a" || len(v.Spans) != 1 || v.Spans[0].Name != "bdn-ack" {
		t.Fatalf("trace = %+v, want req-a with one bdn-ack span", v)
	}
	if strings.Contains(string(body), "broker-respond") {
		t.Fatal("?id= lookup leaked another trace's spans")
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/traces?id=nope")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "not found") {
		t.Fatalf("unknown id: status %d body %s", resp.StatusCode, body)
	}
}
