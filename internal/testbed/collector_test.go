//go:build goexperiment.synctest

package testbed

import (
	"encoding/json"
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
	return laneNew(t, Options{
		Seed:             42,
		Topology:         topology.Ring,
		InjectPolicy:     bdn.InjectClosestFarthest,
		InjectOverhead:   80 * time.Millisecond,
		BrokerProcessing: 100 * time.Millisecond,
		MaxSkew:          500 * time.Millisecond,
		Watch:            col.WatchPlane,
	})
}

// TestCollectorAssemblesCrossNodeTrace runs one discovery over a multi-broker
// ring with a live collector scraping it and asserts the assembled trace
// spans requester, BDN and every broker in causally consistent
// (offset-corrected) order, despite per-node clock skews up to 500 ms.
func TestCollectorAssemblesCrossNodeTrace(t *testing.T) {
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		tb := collectorDeployment(t, col)
		d := tb.NewDiscoverer(simnet.SiteCardiff, "requester", core.Config{})
		res, err := d.Discover()
		if err != nil {
			t.Fatalf("discover: %v", err)
		}
		id := res.RequestID.String()

		// Every span is recorded by the time Discover returns, the requester's
		// last phase last; each node is scraped on its own 50 ms loop, so the
		// trace is whole at the requester's next scrape.
		phases := core.Phases()
		last := phases[len(phases)-1].String()
		var tr collect.TraceInfo
		took := until(t, time.Second, "trace "+id+" through "+last, func() bool {
			tr, _ = col.Trace(id)
			_, ok := spanAligned(tr, last)
			return ok
		})
		if took != 40*time.Millisecond || len(tr.Spans) != 38 || len(tr.Nodes) != 7 {
			t.Errorf("trace whole %v after the discovery with %d spans from %d nodes, want 40ms, 38 and 7",
				took, len(tr.Spans), len(tr.Nodes))
		}
		nodes := spanNodes(tr)
		if !nodes["requester"] || !nodes["gridservicelocator.org"] {
			t.Fatalf("trace %s lacks the requester or the BDN (nodes %v)", id, tr.Nodes)
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
	})
}

// TestCollectorFabricAndFederatedMetrics asserts /fabric lists every fabric
// node and the federated /metrics exposition carries per-broker series.
func TestCollectorFabricAndFederatedMetrics(t *testing.T) {
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		tb := collectorDeployment(t, col)
		d := tb.NewDiscoverer(simnet.SiteCardiff, "requester", core.Config{})
		if _, err := d.Discover(); err != nil {
			t.Fatalf("discover: %v", err)
		}

		// The requester's plane started with it; the fabric lists it once its
		// loop's first scrape has run.
		var view collect.FabricView
		took := until(t, time.Second, "the requester on /fabric", func() bool {
			getJSON(t, col, "/fabric", &view)
			for _, n := range view.Nodes {
				if n.Name == "requester" {
					return true
				}
			}
			return false
		})
		var names []string
		for _, n := range view.Nodes {
			names = append(names, n.Name)
		}
		want := "broker-cardiff broker-fsu broker-indianapolis broker-ncsa broker-umn gridservicelocator.org obscollect requester testbed"
		if got := strings.Join(names, " "); got != want || took != 0 || view.Traces != 1 {
			t.Errorf("/fabric after %v: nodes %s, %d traces; want 0s: %s, 1", took, got, view.Traces, want)
		}

		body := serve(t, col, "/metrics")
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
	})
}

// fastCollector builds a collector scraping every 50 ms, closed when the
// test ends — after the testbed registered later, whose planes then get
// their final scrape from a running collector.
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

// serve answers GET path from the collector's HTTP API in process, and
// returns the body of a 200.
func serve(t *testing.T, col *collect.Collector, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	col.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// getJSON decodes the body serve returns into v.
func getJSON(t *testing.T, col *collect.Collector, path string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(serve(t, col, path)), v); err != nil {
		t.Fatalf("decode %s: %v", path, err)
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
