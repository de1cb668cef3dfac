package collect

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
)

// recordSink captures published alert transitions for assertions.
type recordSink struct {
	mu  sync.Mutex
	got []health.Alert
}

func (s *recordSink) Publish(a health.Alert) {
	s.mu.Lock()
	s.got = append(s.got, a)
	s.mu.Unlock()
}

func (s *recordSink) alerts() []health.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]health.Alert(nil), s.got...)
}

func metricsDoc(node string, offset time.Duration, fams ...obs.ExportFamily) *plane.Scrape {
	return &plane.Scrape{Node: node, Offset: offset, At: time.Now(), Families: fams}
}

// healthTestCollector builds a collector on a 15ms scrape interval — a 45ms
// deadman horizon, a 0.9s egress window, 4.5s and 54s burn windows — with the
// evaluation ticker stopped: tests drive evaluate directly.
func healthTestCollector(t *testing.T) (*Collector, *recordSink) {
	t.Helper()
	sink := &recordSink{}
	c := newTestCollector(t, Config{
		ScrapeInterval: 15 * time.Millisecond,
		Sinks:          []health.Sink{sink},
		manual:         true,
	})
	return c, sink
}

// TestScrapeIntervalSetsEveryWindow pins everything the scrape interval
// derives. At the default 1s each window, hold, store tier, the flight CPU
// window and the evaluation period equal the defaults they had when each was
// a setting of its own; at 100ms each is a tenth of that, the flight window
// held at its 1s floor.
func TestScrapeIntervalSetsEveryWindow(t *testing.T) {
	const s, ms = time.Second, time.Millisecond
	at1s := health.Windows{
		Scrape: s, Deadman: 3 * s, Resolve: 3 * s, Retain: 10 * time.Minute,
		Egress: time.Minute, Flap: 5 * time.Minute, FastBurn: 5 * time.Minute, SlowBurn: time.Hour,
		GoroutineLeak: 5 * time.Minute, GCBurn: 2 * time.Minute,
	}
	tiers1s := []Resolution{{Step: s, Slots: 300}, {Step: 10 * s, Slots: 360}, {Step: time.Minute, Slots: 240}}
	for _, tc := range []struct {
		scrape    time.Duration
		win       health.Windows
		tiers     []Resolution
		flightCPU int
	}{
		{0, at1s, tiers1s, 2}, // unset: the 1s default
		{s, at1s, tiers1s, 2},
		{100 * ms, health.Windows{
			Scrape: 100 * ms, Deadman: 300 * ms, Resolve: 300 * ms, Retain: time.Minute,
			Egress: 6 * s, Flap: 30 * s, FastBurn: 30 * s, SlowBurn: 6 * time.Minute,
			GoroutineLeak: 30 * s, GCBurn: 12 * s,
		}, []Resolution{{Step: 100 * ms, Slots: 300}, {Step: s, Slots: 360}, {Step: 6 * s, Slots: 240}}, 1},
	} {
		c := newTestCollector(t, Config{ScrapeInterval: tc.scrape, manual: true})
		if c.win != tc.win {
			t.Errorf("scrape %v: windows = %+v, want %+v", tc.scrape, c.win, tc.win)
		}
		if got := c.store.Resolutions(); !reflect.DeepEqual(got, tc.tiers) {
			t.Errorf("scrape %v: store tiers = %+v, want %+v", tc.scrape, got, tc.tiers)
		}
		if c.profiles.cpuSeconds != tc.flightCPU {
			t.Errorf("scrape %v: flight CPU window = %ds, want %ds", tc.scrape, c.profiles.cpuSeconds, tc.flightCPU)
		}
	}
}

// TestDeadmanFromIngest drives the full path: scrape-shaped ingest state →
// evaluate → deadman firing on silence and resolving on return.
func TestDeadmanFromIngest(t *testing.T) {
	c, sink := healthTestCollector(t)

	c.ingest(metricsDoc("broker-1", 0), "")
	c.evaluate()
	if got := c.Health().Firing(); got != 0 {
		t.Fatalf("firing = %d for a live node", got)
	}

	// Stay silent past 3 × 15ms: deadman fires.
	time.Sleep(60 * time.Millisecond)
	c.evaluate()
	if got := c.Health().Firing(); got != 1 {
		t.Fatalf("firing = %d after silence, want 1; alerts=%+v", got, c.Health().Alerts())
	}

	// Node comes back and stays back past the resolve hold (3 × 15ms):
	// resolves.
	deadline := time.Now().Add(2 * time.Second)
	for c.Health().Firing() != 0 {
		c.ingest(metricsDoc("broker-1", 0), "")
		c.evaluate()
		if time.Now().After(deadline) {
			t.Fatalf("deadman never resolved; alerts=%+v", c.Health().Alerts())
		}
		time.Sleep(10 * time.Millisecond)
	}
	states := []string{}
	for _, a := range sink.alerts() {
		if a.Rule == health.RuleDeadman {
			states = append(states, a.State)
		}
	}
	if len(states) != 2 || states[0] != health.StateFiring || states[1] != health.StateResolved {
		t.Fatalf("deadman transitions = %v, want [firing resolved]", states)
	}
}

func TestClockDriftFromIngest(t *testing.T) {
	c, _ := healthTestCollector(t)
	c.ingest(metricsDoc("broker-1", 25*time.Millisecond), "")
	c.evaluate()
	var drift *health.Alert
	for _, a := range c.Health().Alerts() {
		if a.Rule == health.RuleClockDrift {
			drift = &a
			break
		}
	}
	if drift == nil || drift.State != health.StateFiring {
		t.Fatalf("no firing clock_drift alert: %+v", c.Health().Alerts())
	}
	if drift.Value < 0.024 || drift.Value > 0.026 {
		t.Fatalf("drift value = %v, want ~0.025", drift.Value)
	}
}

// TestEgressInputsFromStore checks the health input assembly reads the egress
// gauge and windowed drop rate out of the series store.
func TestEgressInputsFromStore(t *testing.T) {
	c, _ := healthTestCollector(t)
	depth := func(v float64) obs.ExportFamily {
		return obs.ExportFamily{Name: "narada_broker_egress_queue_depth", Kind: "gauge",
			Series: []obs.ExportSeries{{Gauge: v}}}
	}
	drops := func(v uint64) obs.ExportFamily {
		return obs.ExportFamily{Name: "narada_broker_egress_dropped_total", Kind: "counter",
			Series: []obs.ExportSeries{{Counter: v}}}
	}

	c.ingest(metricsDoc("broker-1", 0, depth(500), drops(0)), "")
	c.evaluate()
	if got := c.Health().Firing(); got != 0 {
		t.Fatalf("healthy broker fired %d alerts: %+v", got, c.Health().Alerts())
	}

	// Saturated queue (600 > 512) + 30 drops in the 0.9s window (33/s > 1/s).
	c.ingest(metricsDoc("broker-1", 0, depth(600), drops(30)), "")
	c.evaluate()
	firing := map[string]bool{}
	for _, a := range c.Health().Alerts() {
		if a.State == health.StateFiring {
			firing[a.Rule] = true
		}
	}
	if !firing[health.RuleEgressSaturation] || !firing[health.RuleEgressDrops] {
		t.Fatalf("firing rules = %v, want egress saturation and drops", firing)
	}
}

// TestProbeSLOFromStore feeds probe SLI counters and latency histograms
// through ingest and checks both burn-rate rules read them back correctly.
func TestProbeSLOFromStore(t *testing.T) {
	c, _ := healthTestCollector(t)
	runs := func(ok, errs uint64) obs.ExportFamily {
		return obs.ExportFamily{Name: "narada_probe_runs_total", Kind: "counter",
			Series: []obs.ExportSeries{
				{Labels: []obs.Label{obs.L("outcome", "ok")}, Counter: ok},
				{Labels: []obs.Label{obs.L("outcome", "error")}, Counter: errs},
			}}
	}
	lat := func(buckets []uint64, sum float64, count uint64) obs.ExportFamily {
		return obs.ExportFamily{Name: "narada_probe_latency_seconds", Kind: "histogram",
			Series: []obs.ExportSeries{{
				Bounds: []float64{0.5, 1, 5}, Buckets: buckets, Sum: sum, Count: count}}}
	}

	c.ingest(metricsDoc("obsprobe", 0, runs(0, 0), lat([]uint64{0, 0, 0, 0}, 0, 0)), "")
	c.evaluate()
	if got := c.Health().Firing(); got != 0 {
		t.Fatalf("baseline fired %d alerts", got)
	}

	// 50% probe errors and 75% of latency observations beyond the 1s SLO:
	// both burn rates blow through 14.4x/6x of the 1% budget.
	c.ingest(metricsDoc("obsprobe", 0,
		runs(10, 10), lat([]uint64{5, 0, 10, 5}, 40, 20)), "")
	c.evaluate()
	firing := map[string]bool{}
	for _, a := range c.Health().Alerts() {
		if a.State == health.StateFiring {
			firing[a.Rule] = true
		}
	}
	if !firing[health.RuleProbeSLOBurn] || !firing[health.RuleProbeLatencyBurn] {
		t.Fatalf("firing rules = %v, want both probe burn rules", firing)
	}
}

// TestAlertsEndpoint checks /alerts serves the firing count and alert list.
func TestAlertsEndpoint(t *testing.T) {
	c, _ := healthTestCollector(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func() AlertsView {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/alerts")
		if err != nil {
			t.Fatalf("GET /alerts: %v", err)
		}
		defer resp.Body.Close()
		var v AlertsView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode /alerts: %v", err)
		}
		return v
	}

	if v := get(); v.Firing != 0 || len(v.Alerts) != 0 {
		t.Fatalf("empty engine served %+v", v)
	}

	c.ingest(metricsDoc("broker-1", 0), "")
	time.Sleep(60 * time.Millisecond)
	c.evaluate()
	v := get()
	if v.Firing != 1 || len(v.Alerts) != 1 {
		t.Fatalf("/alerts = %+v, want one firing", v)
	}
	a := v.Alerts[0]
	if a.Rule != health.RuleDeadman || a.Node != "broker-1" || a.State != health.StateFiring || a.FiredAt == nil {
		t.Fatalf("alert = %+v", a)
	}
}

// TestQueryEndpoint checks parameter validation, resolution selection and the
// downsampled payload of /query.
func TestQueryEndpoint(t *testing.T) {
	c, _ := healthTestCollector(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	runs := func(n uint64) obs.ExportFamily {
		return obs.ExportFamily{Name: "narada_probe_runs_total", Kind: "counter",
			Series: []obs.ExportSeries{{Labels: []obs.Label{obs.L("outcome", "ok")}, Counter: n}}}
	}
	c.ingest(metricsDoc("obsprobe", 0, runs(0)), "")
	c.ingest(metricsDoc("obsprobe", 0, runs(42)), "")

	get := func(query string) (int, QueryView) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/query" + query)
		if err != nil {
			t.Fatalf("GET /query%s: %v", query, err)
		}
		defer resp.Body.Close()
		var v QueryView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		return resp.StatusCode, v
	}

	if code, _ := get(""); code != http.StatusBadRequest {
		t.Fatalf("missing metric: status %d, want 400", code)
	}
	if code, _ := get("?metric=m&res=bogus"); code != http.StatusBadRequest {
		t.Fatalf("unparseable res: status %d, want 400", code)
	}
	if code, _ := get("?metric=m&res=7s"); code != http.StatusBadRequest {
		t.Fatalf("unconfigured res: status %d, want 400", code)
	}
	if code, _ := get("?metric=m&since=yesterday"); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}

	// Every resolution tier (15ms, 10 × and 60 × that) serves the series.
	for _, res := range []string{"15ms", "150ms", "900ms"} {
		code, v := get("?metric=narada_probe_runs_total&node=obsprobe&res=" + res + "&since=30s")
		if code != http.StatusOK {
			t.Fatalf("res=%s: status %d", res, code)
		}
		if len(v.Series) != 1 {
			t.Fatalf("res=%s: %d series, want 1", res, len(v.Series))
		}
		s := v.Series[0]
		if s.Node != "obsprobe" || s.Kind != "counter" || s.Labels["outcome"] != "ok" {
			t.Fatalf("res=%s series identity = %+v", res, s)
		}
		total := 0.0
		for _, p := range s.Points {
			total += p.Value
		}
		if total != 42 {
			t.Fatalf("res=%s windowed increase = %v, want 42", res, total)
		}
	}

	// Unknown metrics are an empty result, not an error.
	code, v := get("?metric=narada_no_such_metric")
	if code != http.StatusOK || len(v.Series) != 0 {
		t.Fatalf("unknown metric: status %d series %+v", code, v.Series)
	}
}

// TestCloseFlushesAlerts checks Close delivers still-firing alerts to sinks.
func TestCloseFlushesAlerts(t *testing.T) {
	sink := &recordSink{}
	c, err := New(Config{
		ScrapeInterval: 10 * time.Millisecond,
		Sinks:          []health.Sink{sink},
		manual:         true,
	})
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	c.ingest(metricsDoc("broker-1", 0), "")
	time.Sleep(40 * time.Millisecond)
	c.evaluate()
	if c.Health().Firing() != 1 {
		t.Fatalf("setup: expected one firing alert, got %+v", c.Health().Alerts())
	}
	before := len(sink.alerts())
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := sink.alerts()
	if len(got) != before+1 || got[len(got)-1].State != health.StateFiring {
		t.Fatalf("flush on close delivered %+v (had %d before)", got, before)
	}
}
