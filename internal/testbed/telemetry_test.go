//go:build goexperiment.synctest

package testbed

import (
	"strings"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/obs/collect"
	"narada/internal/topology"
)

// TestDiscoveryTelemetry runs one discovery through a deployment whose
// every node a collector scrapes in process, and checks the two
// observability contracts end to end: the request's trace carries every
// core.Phase span plus the BDN/broker hops, keyed by the request UUID, and
// the federated exposition shows the expected metric families.
func TestDiscoveryTelemetry(t *testing.T) {
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		tb := laneNew(t, Options{Topology: topology.Ring, Seed: 11, Watch: col.WatchPlane})

		d := tb.NewDiscoverer("bloomington", "client", discoveryConfig())
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		// One scrape interval later every node's share of it is in.
		time.Sleep(50 * time.Millisecond)

		// Exactly one request flowed through the deployment; its UUID keys the
		// trace assembled from every process it touched.
		if traces := col.Traces(); len(traces) != 1 || traces[0].ID != res.RequestID.String() {
			t.Fatalf("collector holds traces %+v, want the one request %s", traces, res.RequestID)
		}
		tv, _ := col.Trace(res.RequestID.String())

		spans := make(map[string]int)
		for _, s := range tv.Spans {
			spans[s.Name]++
		}
		for _, p := range core.Phases() {
			if spans[p.String()] == 0 {
				t.Errorf("trace %s missing phase span %q (have %v)", tv.ID, p, spans)
			}
		}
		// The request passed the BDN and at least one broker.
		if spans["bdn-ack"] == 0 || spans["bdn-inject"] == 0 {
			t.Errorf("trace missing BDN events: %v", spans)
		}
		if spans["broker-respond"] == 0 {
			t.Errorf("trace missing broker-respond events: %v", spans)
		}
		// Ring topology: the two injected brokers re-disseminate to their peers.
		if spans["broker-fanout"] == 0 {
			t.Errorf("trace missing broker-fanout events: %v", spans)
		}
		// The requester's phase spans share one clock, so among themselves they
		// must appear in execution order.
		var phaseOrder []string
		for _, s := range tv.Spans {
			for _, p := range core.Phases() {
				if s.Name == p.String() {
					phaseOrder = append(phaseOrder, s.Name)
				}
			}
		}
		for i, p := range core.Phases() {
			if i < len(phaseOrder) && phaseOrder[i] != p.String() {
				t.Errorf("phase span order = %v, want the core.Phases() order", phaseOrder)
				break
			}
		}

		exposition := serve(t, col, "/metrics")
		families := []string{
			"narada_broker_frames_total",
			"narada_broker_publish_delivered_total",
			"narada_broker_discovery_requests_total",
			"narada_broker_discovery_responses_total",
			"narada_broker_pings_total",
			"narada_broker_egress_dropped_total",
			"narada_broker_links",
			"narada_broker_clients",
			"narada_broker_egress_queue_depth",
			"narada_bdn_advertisements_total",
			"narada_bdn_requests_total",
			"narada_bdn_injections_total",
			"narada_bdn_brokers",
			"narada_dedup_hits_total",
			"narada_dedup_adds_total",
			"narada_ntptime_offset_seconds",
			"narada_ntptime_synchronized",
			"narada_discovery_phase_seconds",
			"narada_discovery_total_seconds",
			"narada_discovery_responses",
			"narada_discovery_ping_rtt_seconds",
			"narada_discovery_requests_total",
			"narada_discovery_retransmits_total",
		}
		for _, f := range families {
			if !strings.Contains(exposition, "# TYPE "+f+" ") {
				t.Errorf("exposition missing family %s", f)
			}
		}
		// Per-phase histogram series exist for every phase label.
		for _, p := range core.Phases() {
			want := `narada_discovery_phase_seconds_count{node="client",phase="` + p.String() + `"} 1`
			if !strings.Contains(exposition, want) {
				t.Errorf("exposition missing %s", want)
			}
		}
		// The discovery flowed through the counters: the requester got responses
		// and every broker answered exactly once (discovery dedup).
		if !strings.Contains(exposition, `narada_discovery_requests_total{node="client",outcome="ok"} 1`) {
			t.Error("exposition missing the ok-outcome discovery count")
		}
		if res.Selected.LogicalAddress == "" {
			t.Fatal("no broker selected")
		}
	})
}
