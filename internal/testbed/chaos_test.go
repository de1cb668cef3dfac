//go:build goexperiment.synctest

package testbed

import (
	"slices"
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/obs"
	"narada/internal/obs/collect"
	"narada/internal/simnet"
)

// TestChaosSchedules drives the self-healing fabric through scripted outages
// and requires full convergence afterwards: links re-established, every live
// broker registered, no dead broker advertised, and a probe publish flowing
// end to end.
func TestChaosSchedules(t *testing.T) {
	exact(t, func(t *testing.T) {
		scenarios := []struct {
			name     string
			routing  broker.RoutingMode
			schedule []Fault
		}{
			{
				name: "partition heals",
				schedule: []Fault{
					at(0, PartitionFault(simnet.SiteIndianapolis, simnet.SiteUMN)),
					at(2*time.Second, HealFault(simnet.SiteIndianapolis, simnet.SiteUMN)),
				},
			},
			{
				name: "lossy path recovers",
				schedule: []Fault{
					at(0, SetLossFault(simnet.SiteNCSA, simnet.SiteFSU, 0.4)),
					at(2*time.Second, SetLossFault(simnet.SiteNCSA, simnet.SiteFSU, 0)),
				},
			},
			{
				name: "broker crash and restart",
				schedule: []Fault{
					at(0, KillBrokerFault("broker-cardiff")),
					// Before the restart, the fabric must converge WITHOUT the
					// dead broker: its registration ages out everywhere and the
					// surviving chain keeps flowing.
					{At: 100 * time.Millisecond, Name: "dead broker ages out", Do: func(tb *Testbed) error {
						return tb.WaitConverged(ConvergeOptions{Timeout: 15 * time.Second, Publish: true})
					}},
					at(3*time.Second, RestartBrokerFault("broker-cardiff")),
				},
			},
			{
				name: "bdn crash and restart",
				schedule: []Fault{
					at(0, KillBDNFault("gridservicelocator.org")),
					at(1*time.Second, RestartBDNFault("gridservicelocator.org")),
				},
			},
			{
				name:    "combined outage under routed subscriptions",
				routing: broker.RouteSubscriptions,
				schedule: []Fault{
					at(0, PartitionFault(simnet.SiteNCSA, simnet.SiteFSU)),
					at(200*time.Millisecond, KillBrokerFault("broker-umn")),
					at(2*time.Second, HealFault(simnet.SiteNCSA, simnet.SiteFSU)),
					at(3*time.Second, RestartBrokerFault("broker-umn")),
				},
			},
		}
		for _, sc := range scenarios {
			t.Run(sc.name, func(t *testing.T) {
				opts := chaosOptions()
				opts.Routing = sc.routing
				tb := laneNew(t, opts)
				if err := tb.WaitConverged(ConvergeOptions{Timeout: 10 * time.Second}); err != nil {
					t.Fatalf("initial state: %v", err)
				}
				if err := tb.RunSchedule(sc.schedule); err != nil {
					t.Fatalf("schedule: %v", err)
				}
				if err := tb.WaitConverged(ConvergeOptions{Timeout: 30 * time.Second, Publish: true}); err != nil {
					t.Fatalf("after schedule: %v", err)
				}
			})
		}
	})
}

// TestChaosRepeatedBDNRestarts hammers the registration path: the BDN dies
// and comes back three times; every time, the brokers' supervised
// registration links must repopulate the directory.
func TestChaosRepeatedBDNRestarts(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, chaosOptions())
		for round := 0; round < 3; round++ {
			schedule := []Fault{
				at(0, KillBDNFault("gridservicelocator.org")),
				at(500*time.Millisecond, RestartBDNFault("gridservicelocator.org")),
			}
			if err := tb.RunSchedule(schedule); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := tb.WaitConverged(ConvergeOptions{Timeout: 20 * time.Second}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

// TestChaosSupervisionMetrics asserts the healing left an audit trail: after
// a broker outage the surviving dialer's supervisor recorded reconnect
// attempts and at least one successful reconnect, and so did the metrics an
// operator reads — the reconnect counters and the link-state gauge.
func TestChaosSupervisionMetrics(t *testing.T) {
	exact(t, func(t *testing.T) {
		opts := chaosOptions()
		opts.Watch = fastCollector(t, collect.Config{}).WatchPlane
		tb := laneNew(t, opts)
		if err := tb.WaitConverged(ConvergeOptions{Timeout: 10 * time.Second}); err != nil {
			t.Fatalf("initial state: %v", err)
		}

		// The linear chain dials broker-umn from broker-indianapolis; find that
		// edge and its supervising runner.
		var dialer, target string
		for _, e := range tb.Edges {
			if e.To == "broker-umn" {
				dialer, target = e.From, e.To
				break
			}
		}
		if dialer == "" {
			t.Fatalf("no edge into broker-umn in %v", tb.Edges)
		}
		targetAddr := tb.BrokerByName(target).StreamAddr()
		r := tb.BrokerByName(dialer).Supervisor(broker.SuperviseLink, targetAddr)
		if r == nil {
			t.Fatalf("broker %s has no supervisor for %s", dialer, targetAddr)
		}

		schedule := []Fault{
			at(0, KillBrokerFault(target)),
			at(2*time.Second, RestartBrokerFault(target)),
		}
		if err := tb.RunSchedule(schedule); err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if err := tb.WaitConverged(ConvergeOptions{Timeout: 30 * time.Second, Publish: true}); err != nil {
			t.Fatalf("after schedule: %v", err)
		}
		// Read the gauge beside the state it mirrors, before anything slower.
		reg, ok := tb.BrokerRegistry(dialer)
		if !ok {
			t.Fatalf("broker %s has no registry", dialer)
		}
		who, link := obs.L("broker", dialer), obs.L("kind", broker.SuperviseLink)
		state, stateOK := exportedSeries(reg, "narada_broker_link_state", who, link, obs.L("target", targetAddr))
		if got := r.State(); got != broker.LinkConnected {
			t.Errorf("supervisor state after healing = %v, want connected", got)
		}
		if !stateOK || state.Gauge != 0 {
			t.Errorf("narada_broker_link_state{target=%s} = %v (present %v) after healing, want 0 (connected)",
				targetAddr, state.Gauge, stateOK)
		}
		if r.Attempts() == 0 {
			t.Error("supervisor recorded no reconnect attempts across the outage")
		}
		if r.Successes() == 0 {
			t.Error("supervisor recorded no successful reconnects")
		}
		for _, name := range []string{"narada_broker_reconnect_attempts_total", "narada_broker_reconnects_total"} {
			if s, ok := exportedSeries(reg, name, who, link); !ok || s.Counter == 0 {
				t.Errorf("%s{broker=%s,kind=link} = %d (present %v) after the outage, want > 0", name, dialer, s.Counter, ok)
			}
		}
	})
}

// exportedSeries finds the series of family name that carries every label
// in want, as a scrape would read it.
func exportedSeries(reg *obs.Registry, name string, want ...obs.Label) (obs.ExportSeries, bool) {
	for _, f := range reg.ExportSnapshot() {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			for _, w := range want {
				if !slices.Contains(s.Labels, w) {
					continue series
				}
			}
			return s, true
		}
	}
	return obs.ExportSeries{}, false
}
