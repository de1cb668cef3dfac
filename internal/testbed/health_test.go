package testbed

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/obs"
	"narada/internal/obs/collect"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// healthDeployment deploys a 3-broker fabric scraped by col, with the first
// broker's hardware clock pinned 25ms off UTC.
func healthDeployment(t *testing.T, col *collect.Collector) *Testbed {
	t.Helper()
	specs := []BrokerSpec{
		{Site: simnet.SiteIndianapolis, Name: "broker-skewed", Register: true,
			ClockSkew: 25 * time.Millisecond},
		{Site: simnet.SiteUMN, Name: "broker-b", Register: true},
		{Site: simnet.SiteNCSA, Name: "broker-c", Register: true},
	}
	for i := range specs {
		specs[i].Usage = metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}
	}
	tb, err := New(Options{
		Scale:    50,
		Seed:     42,
		Topology: topology.Ring,
		Brokers:  specs,
		MaxSkew:  5 * time.Millisecond, // honest-ish peers; only the injected skew should drift
		Watch:    col.Watch,
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func fetchAlerts(t *testing.T, url string) collect.AlertsView {
	t.Helper()
	resp, err := http.Get(url + "/alerts")
	if err != nil {
		t.Fatalf("GET /alerts: %v", err)
	}
	defer resp.Body.Close()
	var v collect.AlertsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode /alerts: %v", err)
	}
	return v
}

// alertState polls /alerts until the (rule, node) alert reaches state.
func awaitAlertState(t *testing.T, url, rule, node, state string, deadline time.Duration) collect.AlertView {
	t.Helper()
	until := time.Now().Add(deadline)
	var last collect.AlertsView
	for {
		last = fetchAlerts(t, url)
		for _, a := range last.Alerts {
			if a.Rule == rule && a.Node == node && a.State == state {
				return a
			}
		}
		if time.Now().After(until) {
			t.Fatalf("alert %s/%s never reached %s; /alerts = %+v", rule, node, state, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFabricHealthAlerts runs the full failure-detection story against a live
// 3-broker fabric: the injected 25ms clock skew raises clock_drift, killing a
// broker raises deadman within the detection horizon, and the broker
// restarted under the same identity and telemetry port resolves it.
func TestFabricHealthAlerts(t *testing.T) {
	col := fastCollector(t, collect.Config{}) // a 3 × 50ms deadman horizon
	tb := healthDeployment(t, col)
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// Fault-injection precondition: the skewed broker's NTP estimate (true
	// skew ± the 1-20ms residual) must actually exceed the ±20ms envelope.
	// Seed 42 gives a positive residual; if this fails after reseeding the
	// testbed's rng draws, pick another Options.Seed rather than debugging
	// the health engine.
	if off, ok := tb.NTPOffset("broker-skewed"); !ok || off <= 20*time.Millisecond {
		t.Fatalf("precondition: broker-skewed NTP offset = %v (ok=%v), want > 20ms — adjust the seed", off, ok)
	}

	// Clock drift on the skewed broker.
	drift := awaitAlertState(t, srv.URL, health.RuleClockDrift, "broker-skewed", health.StateFiring, 5*time.Second)
	if drift.Value <= 0.020 {
		t.Fatalf("clock_drift value = %v, want > envelope 0.020", drift.Value)
	}
	// The honest brokers stay clean.
	for _, a := range fetchAlerts(t, srv.URL).Alerts {
		if a.Rule == health.RuleClockDrift && a.Node != "broker-skewed" && a.State == health.StateFiring {
			t.Fatalf("honest node %s raised clock drift: %+v", a.Node, a)
		}
	}

	// Kill a broker: its telemetry endpoint dies with it, and deadman must
	// fire after the 3-interval horizon.
	killedAt := time.Now()
	if !tb.KillBroker("broker-b") {
		t.Fatal("KillBroker(broker-b) found no broker")
	}
	dead := awaitAlertState(t, srv.URL, health.RuleDeadman, "broker-b", health.StateFiring, 5*time.Second)
	if dead.FiredAt == nil {
		t.Fatalf("firing deadman has no FiredAt: %+v", dead)
	}
	// Detection latency: the horizon is 150ms; allow generous CI scheduling
	// slack on top, but a multi-second detection would mean the evaluator
	// is not running at its configured cadence.
	if latency := dead.FiredAt.Sub(killedAt); latency > 3*time.Second {
		t.Fatalf("deadman detection took %v, want within the horizon + slack", latency)
	}
	if v := fetchAlerts(t, srv.URL); v.Firing < 1 {
		t.Fatalf("/alerts firing count = %d with a dead broker", v.Firing)
	}
	// The firing alert is also a gauge on the collector's own exposition.
	if g, found := firingGaugeValue(col, health.RuleDeadman, "broker-b"); !found || g != 1 {
		t.Fatalf("narada_alerts_firing{deadman,broker-b} = %v (found=%v), want 1", g, found)
	}

	// The node restarts on the same telemetry port: scrapes succeed again,
	// and the deadman alert must resolve.
	if err := tb.RestartBroker("broker-b"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	resolved := awaitAlertState(t, srv.URL, health.RuleDeadman, "broker-b", health.StateResolved, 5*time.Second)
	if resolved.ResolvedAt == nil {
		t.Fatalf("resolved deadman has no ResolvedAt: %+v", resolved)
	}
	if g, _ := firingGaugeValue(col, health.RuleDeadman, "broker-b"); g != 0 {
		t.Fatalf("narada_alerts_firing{deadman,broker-b} = %v after resolve, want 0", g)
	}
}

func firingGaugeValue(col *collect.Collector, rule, node string) (float64, bool) {
	for _, f := range col.Registry().ExportSnapshot() {
		if f.Name != "narada_alerts_firing" {
			continue
		}
		for _, s := range f.Series {
			var r, n string
			for _, l := range s.Labels {
				switch l.Key {
				case "rule":
					r = l.Value
				case "node":
					n = l.Value
				}
			}
			if r == rule && n == node {
				return s.Gauge, true
			}
		}
	}
	return 0, false
}

// TestQueryServesProbeSeries carries probe SLIs (success counters and a
// latency histogram) through the real scrape → ingest → store path and
// asserts /query serves the downsampled series at every resolution: at the
// 50ms scrape interval, 50ms, 500ms and 3s.
func TestQueryServesProbeSeries(t *testing.T) {
	col := fastCollector(t, collect.Config{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// A synthetic prober process: its own plane serving loopback telemetry.
	// The simnet testbed cannot host the real Prober (it probes over OS
	// sockets), but the path from its SLIs to /query is identical.
	pl, err := plane.Start(plane.Config{Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0"}, Node: "obsprobe", Embedded: true})
	if err == nil {
		err = pl.Serve()
	}
	if err != nil {
		t.Fatalf("prober plane: %v", err)
	}
	defer pl.Close()
	reg := pl.Handle().Metrics
	who := obs.L("node", "obsprobe")
	okRuns := reg.Counter("narada_probe_runs_total", "Probes.", who, obs.L("outcome", "ok"))
	errRuns := reg.Counter("narada_probe_runs_total", "Probes.", who, obs.L("outcome", "error"))
	latency := reg.Histogram("narada_probe_latency_seconds", "Probe latency.", nil, who)
	col.Watch(pl.Addr())

	stop := make(chan struct{})
	go func() { // a probe "runs" every 10ms
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-ticker.C:
				if i%5 == 4 {
					errRuns.Inc()
				} else {
					okRuns.Inc()
				}
				latency.ObserveDuration(time.Duration(5+i%10) * time.Millisecond)
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	query := func(metric, res string) []collect.QuerySeries {
		t.Helper()
		resp, err := http.Get(srv.URL + "/query?metric=" + metric + "&node=obsprobe&res=" + res + "&since=30s")
		if err != nil {
			t.Fatalf("GET /query: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/query %s res=%s: status %d", metric, res, resp.StatusCode)
		}
		var v collect.QueryView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode /query: %v", err)
		}
		return v.Series
	}

	// Let a couple of coarse windows fill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		series := query("narada_probe_runs_total", "50ms")
		total := 0.0
		for _, s := range series {
			for _, p := range s.Points {
				total += p.Value
			}
		}
		if total >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe counters never accumulated; last series %+v", series)
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, res := range []string{"50ms", "500ms", "3s"} {
		runs := query("narada_probe_runs_total", res)
		if len(runs) != 2 { // outcome=ok and outcome=error
			t.Fatalf("res=%s: %d run series, want 2 (ok+error): %+v", res, len(runs), runs)
		}
		for _, s := range runs {
			if s.Kind != "counter" || len(s.Points) == 0 {
				t.Fatalf("res=%s: bad run series %+v", res, s)
			}
		}

		lat := query("narada_probe_latency_seconds", res)
		if len(lat) != 1 || lat[0].Kind != "histogram" {
			t.Fatalf("res=%s: latency series = %+v", res, lat)
		}
		var seen bool
		for _, p := range lat[0].Points {
			if p.Count > 0 {
				seen = true
				if p.P50 <= 0 || p.P99 < p.P50 {
					t.Fatalf("res=%s: implausible percentiles %+v", res, p)
				}
			}
		}
		if !seen {
			t.Fatalf("res=%s: latency windows all empty: %+v", res, lat[0].Points)
		}
	}
}
