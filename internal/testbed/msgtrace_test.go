//go:build goexperiment.synctest

package testbed

import (
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/event"
	"narada/internal/obs/collect"
	"narada/internal/obs/collect/health"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// TestSampledPublishAssemblesMessageTrace publishes one sampled message
// through a two-broker fabric with a live collector scraping it and asserts the
// end-to-end story: the sampled flag crosses the link in the event headers,
// and the collector assembles a message-kind trace whose spans cover both
// brokers (publish, match, link hop) with a per-hop queue-wait breakdown.
func TestSampledPublishAssemblesMessageTrace(t *testing.T) {
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		tb := laneNew(t, Options{
			Seed: 42,
			Brokers: []BrokerSpec{
				{Site: simnet.SiteIndianapolis, Name: "broker-a", Register: true},
				{Site: simnet.SiteUMN, Name: "broker-b", Register: true},
			},
			Topology:    topology.Linear,
			Watch:       col.WatchPlane,
			SampleEvery: 1, // every publish traced: one message is enough
		})

		const topic = "obs/msg/path"
		rc, err := broker.Connect(tb.ClientNode(simnet.SiteUMN, "trace-sub"),
			tb.BrokerByName("broker-b").StreamAddr(), "trace-sub")
		if err != nil {
			t.Fatalf("subscriber: %v", err)
		}
		defer rc.Close()
		if err := rc.Subscribe(topic); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		advance(300 * time.Millisecond)

		pc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "trace-pub"),
			tb.BrokerByName("broker-a").StreamAddr(), "trace-pub")
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
		defer pc.Close()
		published := time.Now()
		if err := pc.Publish(topic, []byte("traced message")); err != nil {
			t.Fatalf("publish: %v", err)
		}

		ev, err := rc.Next(time.Second)
		if err != nil {
			t.Fatalf("delivery: %v", err)
		}
		if took := time.Since(published); took != 10400*time.Microsecond {
			t.Errorf("delivered %v after the publish, want 10.4ms", took)
		}
		// Satellite check: the sampled verdict crossed the link in the headers —
		// origin is the deciding broker, and the hop counter advanced once.
		origin, hop, sampled := ev.MsgTrace()
		if !sampled {
			t.Fatalf("delivered event lost the sampled flag; headers %v", ev.Headers)
		}
		if origin != "broker-a" || hop != 1 {
			t.Fatalf("msg trace headers origin=%q hop=%d, want broker-a/1", origin, hop)
		}

		// The trace is keyed by the event UUID. It is whole once spans from both
		// brokers landed and the hop breakdown is populated.
		id := ev.ID.String()
		var tr collect.TraceInfo
		took := until(t, time.Second, "message trace "+id, func() bool {
			tr, _ = col.Trace(id)
			return tr.Kind == collect.TraceKindMessage && len(tr.Nodes) == 2 && len(tr.Hops) == 2
		})
		if took != 29*time.Millisecond || len(tr.Spans) != 6 {
			t.Errorf("message trace whole %v after delivery with %d spans, want 29ms and 6", took, len(tr.Spans))
		}

		spans := make(map[string]map[string]bool) // name -> nodes
		for _, s := range tr.Spans {
			if spans[s.Name] == nil {
				spans[s.Name] = make(map[string]bool)
			}
			spans[s.Name][s.Node] = true
		}
		if !spans["msg-publish"]["broker-a"] {
			t.Errorf("no msg-publish span on broker-a: %v", spans)
		}
		if !spans["msg-match"]["broker-a"] || !spans["msg-match"]["broker-b"] {
			t.Errorf("msg-match spans missing a broker: %v", spans)
		}
		if !spans["msg-hop"]["broker-b"] {
			t.Errorf("no msg-hop span on broker-b (the link ingress): %v", spans)
		}
		if !spans["msg-flush"]["broker-a"] || !spans["msg-flush"]["broker-b"] {
			t.Errorf("msg-flush spans missing a broker: %v", spans)
		}

		// Queue-wait breakdown: broker-a flushed the frame to the link, broker-b
		// to the local client; each wait is measured on the broker's clock.
		dests := make(map[string]bool)
		var maxWait time.Duration
		for _, h := range tr.Hops {
			dests[h.Node+"/"+h.Dest] = true
			if h.QueueWaitNs < 0 {
				t.Errorf("negative queue wait %v at %s", h.QueueWaitNs, h.Node)
			}
			if h.QueueWaitNs > maxWait {
				maxWait = h.QueueWaitNs
			}
		}
		if !dests["broker-a/link"] || !dests["broker-b/local"] {
			t.Errorf("hop breakdown missing an edge: %v", dests)
		}
		if maxWait == 0 {
			t.Error("all queue waits are zero; egress enqueue timestamps not flowing")
		}
	})
}

// TestDropStormFiresDropRatioAlert wedges a broker's egress with a subscriber
// that never reads, floods the topic until drop-oldest eviction dominates,
// and asserts the collector's drop_ratio rule fires from the scraped flow of
// delivered/dropped counters — then resolves once healthy traffic replaces
// the storm in the evaluation window.
func TestDropStormFiresDropRatioAlert(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A 25ms scrape interval makes the drop-ratio window 60 × 25ms = 1.5s.
		col := fastCollector(t, collect.Config{ScrapeInterval: 25 * time.Millisecond})
		tb := laneNew(t, Options{
			Seed: 42,
			Brokers: []BrokerSpec{
				{Site: simnet.SiteIndianapolis, Name: "broker-storm", Register: true},
			},
			Topology: topology.Unconnected,
			Watch:    col.WatchPlane,
		})
		b := tb.BrokerByName("broker-storm")

		// A subscriber that never reads: raw connection, subscribe, silence. The
		// broker's egress queue fills behind it and drop-oldest takes over.
		blocked, err := tb.ClientNode(simnet.SiteIndianapolis, "blocked-sub").Dial(b.StreamAddr())
		if err != nil {
			t.Fatalf("blocked subscriber dial: %v", err)
		}
		defer blocked.Close()
		sub := event.New(event.TypeSubscribe, "storm/topic", nil)
		sub.Source = "blocked-sub"
		if err := blocked.Send(event.Encode(sub)); err != nil {
			t.Fatalf("blocked subscribe: %v", err)
		}
		advance(100 * time.Millisecond)

		pc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "storm-pub"),
			b.StreamAddr(), "storm-pub")
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
		defer pc.Close()

		// The storm runs across many scrape intervals: the collector's rate
		// store baselines each counter at its first snapshot, so a burst that
		// finishes before the first scrape would read as a zero rate. A paced
		// flood keeps the egress queue (512) wedged and drop-oldest evicting.
		// delivered counts at enqueue, so ratio = drops/delivered.
		stormStart := time.Now()
		fired := publishUntil(t, col, pc, "storm/topic", 50, 5*time.Millisecond, health.StateFiring)
		if b.EgressDropped() == 0 {
			t.Fatal("storm produced no egress drops; queue never wedged")
		}
		if took := fired.FiredAt.Sub(stormStart); fired.Value <= 0.01 || took != 276800*time.Microsecond {
			t.Fatalf("drop_ratio fired %v into the storm at %v, want 276.8ms, over threshold 0.01", took, fired.Value)
		}

		// Recovery: the storm ends, the wedged consumer disconnects and healthy
		// traffic takes over. Client pumps drain automatically, so the new
		// subscriber's queue never backs up; once the storm ages out of the 1.5s
		// window the ratio returns to zero on real volume and the alert
		// resolves.
		_ = blocked.Close()
		stormEnd := time.Now()
		rc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "healthy-sub"),
			b.StreamAddr(), "healthy-sub")
		if err != nil {
			t.Fatalf("healthy subscriber: %v", err)
		}
		defer rc.Close()
		if err := rc.Subscribe("storm/healthy"); err != nil {
			t.Fatalf("healthy subscribe: %v", err)
		}
		advance(100 * time.Millisecond)
		resolved := publishUntil(t, col, pc, "storm/healthy", 1, 10*time.Millisecond, health.StateResolved)
		if after := resolved.ResolvedAt.Sub(stormEnd); after != 1621800*time.Microsecond {
			t.Errorf("drop_ratio resolved %v after the storm ended, want 1.6218s", after)
		}
	})
}

// publishUntil publishes n messages on topic every period until the
// drop_ratio alert on broker-storm reaches state, and returns that alert.
// The test's own goroutine publishes, between settled steps, so no burst
// races a scrape at the same instant.
func publishUntil(t *testing.T, col *collect.Collector, c *broker.Client, topic string, n int, period time.Duration, state string) health.Alert {
	t.Helper()
	payload := make([]byte, 64)
	for start := time.Now(); ; advance(period) {
		for _, a := range col.Health().Alerts() {
			if a.Rule == health.RuleDropRatio && a.Node == "broker-storm" && a.State == state {
				return a
			}
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("drop_ratio on broker-storm never reached %s", state)
		}
		for i := 0; i < n; i++ {
			if err := c.Publish(topic, payload); err != nil {
				t.Fatalf("publish on %s: %v", topic, err)
			}
		}
	}
}
