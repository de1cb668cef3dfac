package testbed

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/core"
	"narada/internal/obs/collect"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// collectorDeployment is the shared shape of the end-to-end observability
// tests: large clock skews so raw timestamps are visibly misordered, and
// processing/injection costs that dwarf the worst-case NTP residual (40 ms
// across a node pair) so aligned ordering is deterministic.
func collectorDeployment(t *testing.T, col *collect.Collector) *Testbed {
	t.Helper()
	tb, err := New(Options{
		Scale:            50,
		Seed:             42,
		Topology:         topology.Ring,
		InjectPolicy:     bdn.InjectClosestFarthest,
		InjectOverhead:   80 * time.Millisecond,
		BrokerProcessing: 100 * time.Millisecond,
		MaxSkew:          500 * time.Millisecond,
		Watch:            col.Watch,
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// TestCollectorAssemblesCrossNodeTrace runs one discovery over a multi-broker
// ring with a live collector scraping it and asserts the assembled trace
// spans requester, BDN and at least two brokers in causally consistent
// (offset-corrected) order, despite per-node clock skews up to 500 ms.
func TestCollectorAssemblesCrossNodeTrace(t *testing.T) {
	col := fastCollector(t, collect.Config{})
	tb := collectorDeployment(t, col)
	d := tb.NewDiscoverer(simnet.SiteCardiff, "requester", core.Config{})
	res, err := d.Discover()
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	id := res.RequestID.String()

	// Nodes are scraped on a short wall-clock interval, each on its own
	// loop; poll until the trace covers requester + BDN + >= 2 brokers,
	// whichever of them is scraped first.
	tr := waitForTrace(t, col, id, func(tr collect.TraceInfo) bool {
		nodes := spanNodes(tr)
		return nodes["requester"] && nodes["gridservicelocator.org"] && len(nodes) >= 4
	})
	nodes := spanNodes(tr)
	if !nodes["requester"] {
		t.Fatalf("trace %s has no requester spans (nodes %v)", id, tr.Nodes)
	}
	if !nodes["gridservicelocator.org"] {
		t.Fatalf("trace %s has no BDN spans (nodes %v)", id, tr.Nodes)
	}
	brokers := 0
	for n := range nodes {
		if strings.HasPrefix(n, "broker-") {
			brokers++
		}
	}
	if brokers < 2 {
		t.Fatalf("trace %s has spans from %d brokers, want >= 2 (nodes %v)", id, brokers, tr.Nodes)
	}

	// Causal consistency on the aligned timeline. request-issue starts before
	// the BDN injects (one-way WAN latency + 80 ms injection overhead), and
	// every broker span follows the first injection (transfer + 100 ms
	// processing) — margins far above the 40 ms worst-case residual pair.
	issueAt, ok := spanAligned(tr, "request-issue")
	if !ok {
		t.Fatalf("trace %s has no request-issue span", id)
	}
	var firstInject time.Time
	injects := 0
	for _, s := range tr.Spans {
		if s.Name != "bdn-inject" {
			continue
		}
		injects++
		if firstInject.IsZero() || s.AtAligned.Before(firstInject) {
			firstInject = s.AtAligned
		}
		if !s.AtAligned.After(issueAt) {
			t.Errorf("bdn-inject aligned %v not after request-issue %v", s.AtAligned, issueAt)
		}
	}
	if injects == 0 {
		t.Fatalf("trace %s has no bdn-inject spans", id)
	}
	// broker-fanout fires on receipt (only network latency after an inject —
	// below the residual), so it is ordered against request-issue; the
	// response follows the broker's 100 ms processing, so it is ordered
	// against the first injection.
	brokerSpans := 0
	for _, s := range tr.Spans {
		switch s.Name {
		case "broker-fanout":
			brokerSpans++
			if !s.AtAligned.After(issueAt) {
				t.Errorf("broker-fanout on %s aligned %v not after request-issue %v",
					s.Node, s.AtAligned, issueAt)
			}
		case "broker-respond":
			brokerSpans++
			if !s.AtAligned.After(firstInject) {
				t.Errorf("broker-respond on %s aligned %v not after first bdn-inject %v",
					s.Node, s.AtAligned, firstInject)
			}
		}
	}
	if brokerSpans == 0 {
		t.Fatalf("trace %s has no broker spans", id)
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].AtAligned.Before(tr.Spans[i-1].AtAligned) {
			t.Fatalf("trace spans not sorted by aligned time at index %d", i)
		}
	}

	// The skews are real: at least one span's raw node-local timestamp must
	// disagree with the aligned timeline by more than the NTP residual,
	// proving alignment did meaningful work.
	misaligned := false
	for _, s := range tr.Spans {
		if d := s.At.Sub(s.AtAligned); d > 50*time.Millisecond || d < -50*time.Millisecond {
			misaligned = true
			break
		}
	}
	if !misaligned {
		t.Error("no span shows a raw-vs-aligned gap beyond 50ms; skew plumbing suspect")
	}
}

// TestCollectorFabricAndFederatedMetrics asserts /fabric lists every fabric
// node and the federated /metrics exposition carries per-broker series.
func TestCollectorFabricAndFederatedMetrics(t *testing.T) {
	col := fastCollector(t, collect.Config{})
	tb := collectorDeployment(t, col)
	d := tb.NewDiscoverer(simnet.SiteCardiff, "requester", core.Config{})
	if _, err := d.Discover(); err != nil {
		t.Fatalf("discover: %v", err)
	}

	want := map[string]bool{"requester": true, "gridservicelocator.org": true}
	for _, b := range tb.Brokers {
		want[b.LogicalAddress()] = true
	}

	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	var view collect.FabricView
	for {
		resp, err := http.Get(srv.URL + "/fabric")
		if err != nil {
			t.Fatalf("GET /fabric: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode /fabric: %v", err)
		}
		resp.Body.Close()
		have := make(map[string]bool, len(view.Nodes))
		for _, n := range view.Nodes {
			have[n.Name] = true
		}
		missing := 0
		for n := range want {
			if !have[n] {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fabric never reported all %d nodes; last view %+v", len(want), view.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Traces == 0 {
		t.Error("fabric reports zero traces after a discovery")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	body := string(raw)
	for _, b := range tb.Brokers {
		if !strings.Contains(body, `node="`+b.LogicalAddress()+`"`) {
			t.Errorf("federated /metrics missing series for %s", b.LogicalAddress())
		}
	}
	for _, family := range []string{
		"narada_broker_links", "narada_discovery_total_seconds", "narada_collect_scrapes_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("federated /metrics missing family %s", family)
		}
	}
}

// fastCollector builds a collector scraping every 50ms, closed when the test
// ends — after the testbed registered later, whose planes then get their
// last scrape instead of waiting it out.
func fastCollector(t *testing.T, cfg collect.Config) *collect.Collector {
	t.Helper()
	if cfg.ScrapeInterval == 0 {
		cfg.ScrapeInterval = 50 * time.Millisecond
	}
	col, err := collect.New(cfg)
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	t.Cleanup(func() { _ = col.Close() })
	return col
}

func waitForTrace(t *testing.T, col *collect.Collector, id string, ready func(collect.TraceInfo) bool) collect.TraceInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr, ok := col.Trace(id)
		if ok && ready(tr) {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never assembled (have %v)", id, tr.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func spanNodes(tr collect.TraceInfo) map[string]bool {
	out := make(map[string]bool, len(tr.Nodes))
	for _, n := range tr.Nodes {
		out[n] = true
	}
	return out
}

func spanAligned(tr collect.TraceInfo, name string) (time.Time, bool) {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s.AtAligned, true
		}
	}
	return time.Time{}, false
}
