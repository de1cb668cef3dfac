//go:build goexperiment.synctest

package testbed

import (
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/obs"
	"narada/internal/obs/collect"
	"narada/internal/obs/collect/health"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// TestGoroutineLeakFlightRecorder injects a goroutine leak into a testbed
// broker and follows it to the alert: the leaking gauge is scraped from the
// node's plane and the collector's goroutine_leak rule fires on that node,
// at an exact instant, and on no other. The flight recorder's pull of pprof
// captures over HTTP is collect's TestFlightRecorderOnGoroutineLeak: an
// in-process plane has no address, so it is never profiled.
func TestGoroutineLeakFlightRecorder(t *testing.T) {
	exact(t, func(t *testing.T) {
		// At fastCollector's 50ms scrape interval the goroutine-leak window
		// (300 intervals) is 15s, holding the whole test, baseline included.
		col := fastCollector(t, collect.Config{})
		tb := laneNew(t, Options{
			Seed:     42,
			NoBDN:    true,
			Topology: topology.Linear,
			Brokers: []BrokerSpec{
				{Site: simnet.SiteIndianapolis, Name: "broker-leaky",
					Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}},
				{Site: simnet.SiteUMN, Name: "broker-quiet",
					Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}},
			},
			Watch: col.WatchPlane,
		})
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
		advance(700 * time.Millisecond)
		leakStart := time.Now()
		var a collect.AlertView
		for v := 1000.0; ; v += 60 {
			goroutines.Set(v)
			var fired bool
			if a, fired = leakAlert(t, col, "broker-leaky"); fired {
				break
			}
			if time.Since(leakStart) > 15*time.Second {
				t.Fatal("goroutine_leak never fired on broker-leaky")
			}
			advance(100 * time.Millisecond)
		}
		if took := a.FiredAt.Sub(leakStart); a.Value != 880 || took != 75*time.Millisecond {
			t.Fatalf("goroutine_leak growth %v, fired %v into the leak; want 880 at 75ms", a.Value, took)
		}
		// The quiet broker serves no goroutine gauge and stays clean.
		if al, fired := leakAlert(t, col, "broker-quiet"); fired {
			t.Fatalf("unexpected goroutine_leak on broker-quiet: %+v", al)
		}
	})
}

// leakAlert reads node's goroutine_leak alert from /alerts, and whether it is
// firing.
func leakAlert(t *testing.T, col *collect.Collector, node string) (collect.AlertView, bool) {
	t.Helper()
	var v collect.AlertsView
	getJSON(t, col, "/alerts", &v)
	for _, a := range v.Alerts {
		if a.Rule == health.RuleGoroutineLeak && a.Node == node {
			return a, a.State == health.StateFiring
		}
	}
	return collect.AlertView{}, false
}
