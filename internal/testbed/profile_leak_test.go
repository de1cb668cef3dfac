package testbed

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/obs"
	"narada/internal/obs/collect"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/profile"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// TestGoroutineLeakFlightRecorder injects a goroutine leak into a testbed
// broker and follows it end to end: the leaking gauge is scraped from the
// node's real loopback telemetry endpoint, the collector's goroutine_leak
// rule fires, the flight recorder takes pprof captures from that endpoint,
// and the /alerts view links the captured profiles.
func TestGoroutineLeakFlightRecorder(t *testing.T) {
	// At fastCollector's 50ms scrape interval the goroutine-leak window (300
	// intervals) is 15s, holding the whole test, baseline included, and a
	// flight CPU capture takes its 1s floor: the story fits in a test.
	col := fastCollector(t, collect.Config{})
	tb, err := New(Options{
		Scale:    50,
		Seed:     42,
		NoBDN:    true,
		Topology: topology.Linear,
		Brokers: []BrokerSpec{
			{Site: simnet.SiteIndianapolis, Name: "broker-leaky",
				Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}},
			{Site: simnet.SiteUMN, Name: "broker-quiet",
				Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}},
		},
		Watch: col.Watch,
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	t.Cleanup(tb.Close)
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// The leaky broker serves a REAL telemetry endpoint on loopback: its
	// private testbed registry and pprof — the same wiring cmd/broker uses,
	// just with the HTTP side outside simnet.
	reg, ok := tb.BrokerRegistry("broker-leaky")
	if !ok {
		t.Fatal("no registry for broker-leaky")
	}

	// Inject the leak: the testbed shares one OS process, so the per-node
	// goroutine count is a synthetic gauge — steady baseline long enough to
	// land in several retention slots, then unbounded growth.
	goroutines := reg.Gauge("narada_process_goroutines", "Live goroutines.",
		obs.L("node", "broker-leaky"))
	goroutines.Set(120)
	time.Sleep(700 * time.Millisecond)
	stopLeak := make(chan struct{})
	defer close(stopLeak)
	go func() {
		v := 1000.0
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			goroutines.Set(v)
			v += 60
			select {
			case <-ticker.C:
			case <-stopLeak:
				return
			}
		}
	}()

	a := awaitAlertState(t, srv.URL, health.RuleGoroutineLeak, "broker-leaky",
		health.StateFiring, 10*time.Second)
	if a.Value <= 500 {
		t.Fatalf("goroutine_leak growth = %v, want > 500", a.Value)
	}
	// The quiet broker serves no goroutine gauge and must stay clean.
	for _, al := range fetchAlerts(t, srv.URL).Alerts {
		if al.Rule == health.RuleGoroutineLeak && al.Node != "broker-leaky" {
			t.Fatalf("unexpected goroutine_leak on %s: %+v", al.Node, al)
		}
	}

	// The flight recorder captures asynchronously (its CPU pull samples for
	// a full second); poll until the alert links a flight capture.
	var flight profile.Capture
	deadline := time.Now().Add(15 * time.Second)
	for flight.ID == "" {
		for _, al := range fetchAlerts(t, srv.URL).Alerts {
			if al.Rule != health.RuleGoroutineLeak || al.Node != "broker-leaky" {
				continue
			}
			for _, ref := range al.Profiles {
				if ref.Trigger == "flight:"+health.RuleGoroutineLeak && ref.Kind == "goroutine" {
					flight = ref
				}
			}
		}
		if flight.ID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alert never linked a flight-recorded profile")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The linked capture is a real goroutine dump of the telemetry process,
	// downloadable from the collector by the URL the alert carries.
	resp, err := http.Get(srv.URL + flight.URL)
	if err != nil {
		t.Fatalf("GET %s: %v", flight.URL, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", flight.URL, resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine profile:") {
		t.Fatalf("flight capture is not a goroutine dump: %.120q", string(body))
	}
}
