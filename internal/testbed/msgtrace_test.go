package testbed

import (
	"fmt"
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
	col := fastCollector(t, collect.Config{})
	tb, err := New(Options{
		Scale: 50,
		Seed:  42,
		Brokers: []BrokerSpec{
			{Site: simnet.SiteIndianapolis, Name: "broker-a", Register: true},
			{Site: simnet.SiteUMN, Name: "broker-b", Register: true},
		},
		Topology:    topology.Linear,
		Watch:       col.Watch,
		SampleEvery: 1, // every publish traced: one message is enough
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer tb.Close()

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
	tb.Net.Clock().Sleep(300 * time.Millisecond)

	pc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "trace-pub"),
		tb.BrokerByName("broker-a").StreamAddr(), "trace-pub")
	if err != nil {
		t.Fatalf("publisher: %v", err)
	}
	defer pc.Close()
	if err := pc.Publish(topic, []byte("traced message")); err != nil {
		t.Fatalf("publish: %v", err)
	}

	ev, err := rc.Next(5 * time.Second)
	if err != nil {
		t.Fatalf("delivery: %v", err)
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

	// The trace is keyed by the event UUID. Wait until spans from both
	// brokers landed and the hop breakdown is populated.
	id := ev.ID.String()
	tr := waitForTrace(t, col, id, func(tr collect.TraceInfo) bool {
		return tr.Kind == collect.TraceKindMessage && len(spanNodes(tr)) >= 2 && len(tr.Hops) >= 2
	})

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
	// to the local client; every wait is a real measured wall-clock duration.
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
}

// TestDropStormFiresDropRatioAlert wedges a broker's egress with a subscriber
// that never reads, floods the topic until drop-oldest eviction dominates,
// and asserts the collector's drop_ratio rule fires from the scraped flow of
// delivered/dropped counters — then resolves once healthy traffic replaces
// the storm in the evaluation window.
func TestDropStormFiresDropRatioAlert(t *testing.T) {
	// A 25ms scrape interval makes the drop-ratio window 60 × 25ms = 1.5s.
	col := fastCollector(t, collect.Config{ScrapeInterval: 25 * time.Millisecond})

	tb, err := New(Options{
		Scale: 50,
		Seed:  42,
		Brokers: []BrokerSpec{
			{Site: simnet.SiteIndianapolis, Name: "broker-storm", Register: true},
		},
		Topology: topology.Unconnected,
		Watch:    col.Watch,
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer tb.Close()
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
	tb.Net.Clock().Sleep(100 * time.Millisecond)

	pc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "storm-pub"),
		b.StreamAddr(), "storm-pub")
	if err != nil {
		t.Fatalf("publisher: %v", err)
	}
	defer pc.Close()

	// The storm runs continuously in wall time: the collector's rate store
	// baselines each counter at its first snapshot, so a burst that finishes
	// before the first scrape would read as a zero rate. A paced flood keeps
	// the egress queue (512) wedged and drop-oldest evicting across many
	// scrape intervals. delivered counts at enqueue, so ratio =
	// drops/delivered.
	payload := make([]byte, 64)
	stormStop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				for i := 0; i < 50; i++ {
					if err := pc.Publish("storm/topic", payload); err != nil {
						return
					}
				}
			case <-stormStop:
				return
			}
		}
	}()
	if waitBrokerDrops(b, 200, 10*time.Second) == 0 {
		close(stormStop)
		<-stormDone
		t.Fatal("storm produced no egress drops; queue never wedged")
	}

	fired := awaitEngineAlert(t, col, health.RuleDropRatio, "broker-storm", health.StateFiring, 15*time.Second)
	if fired.Value <= 0.01 {
		t.Fatalf("drop_ratio fired with value %v, want > threshold 0.01", fired.Value)
	}

	// Recovery: the storm ends, the wedged consumer disconnects and healthy
	// traffic takes over. Client pumps drain automatically, so the new
	// subscriber's queue never backs up; once the storm ages out of the 1.5s
	// window the ratio returns to zero on real volume and the alert must
	// resolve.
	close(stormStop)
	<-stormDone
	_ = blocked.Close()
	rc, err := broker.Connect(tb.ClientNode(simnet.SiteIndianapolis, "healthy-sub"),
		b.StreamAddr(), "healthy-sub")
	if err != nil {
		t.Fatalf("healthy subscriber: %v", err)
	}
	defer rc.Close()
	if err := rc.Subscribe("storm/healthy"); err != nil {
		t.Fatalf("healthy subscribe: %v", err)
	}
	tb.Net.Clock().Sleep(100 * time.Millisecond)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_ = pc.Publish("storm/healthy", payload)
			case <-stop:
				return
			}
		}
	}()

	resolved := awaitEngineAlert(t, col, health.RuleDropRatio, "broker-storm", health.StateResolved, 20*time.Second)
	if resolved.ResolvedAt == nil {
		t.Fatalf("resolved drop_ratio has no ResolvedAt: %+v", resolved)
	}
}

// waitBrokerDrops polls the broker's own egress drop counters until they
// reach at least want (returning the observed count), or the deadline passes.
func waitBrokerDrops(b *broker.Broker, want uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		if n := b.EgressDropped(); n >= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitEngineAlert polls the health engine until the (rule, node) alert
// reaches the wanted state.
func awaitEngineAlert(t *testing.T, col *collect.Collector, rule, node, state string, timeout time.Duration) health.Alert {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last []health.Alert
	for {
		last = col.Health().Alerts()
		for _, a := range last {
			if a.Rule == rule && a.Node == node && a.State == state {
				return a
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert %s/%s never reached %s; alerts = %s", rule, node, state, fmt.Sprint(last))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
