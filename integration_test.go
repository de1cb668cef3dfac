//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package narada

import (
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

// TestFullSystemStory is the capstone integration test: one deployment
// exercising the complete life of an entity in the messaging infrastructure —
// discovery of the nearest broker, connection, subscription, cross-network
// delivery and survival of a BDN failure. (The reliable-stream and
// fragmentation leg lives with those services, in examples/datastreams.) It
// runs in a synctest bubble, so every model-time wait in it is exact.
func TestFullSystemStory(t *testing.T) {
	synctest.Run(func() { t.Run("bubble", fullSystemStory) })
}

func fullSystemStory(t *testing.T) {
	specs := testbed.PaperBrokers()
	tb, err := testbed.New(testbed.Options{
		Topology:     topology.Star,
		InjectPolicy: bdn.InjectClosestFarthest,
		Seed:         2026,
		Brokers:      specs,
		BDNCount:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Act 1 — discovery: a Bloomington client finds its nearest broker.
	d := tb.NewDiscoverer(simnet.SiteBloomington, "story-client", core.Config{
		CollectWindow: 2 * time.Second,
		MaxResponses:  5,
	})
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 || res.Via != core.ViaBDN || res.Selected.LogicalAddress != "broker-indianapolis" {
		t.Fatalf("discovery degraded: %d responses via %s, selected %s", len(res.Responses), res.Via, res.Selected.LogicalAddress)
	}

	// Act 2 — pub/sub across the network: subscribe at the discovered
	// broker, publish from the far side of the WAN.
	node := tb.ClientNode(simnet.SiteBloomington, "story-app")
	client, err := broker.Connect(node, res.Selected.Endpoint("tcp"), "story-app")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Subscribe("story/**"); err != nil {
		t.Fatal(err)
	}
	tb.Net.Clock().Sleep(200 * time.Millisecond)
	if err := tb.BrokerByName("broker-cardiff").Publish("story/hello", []byte("transatlantic")); err != nil {
		t.Fatal(err)
	}
	ev, err := client.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(ev.Payload) != "transatlantic" {
		t.Fatalf("payload = %q", ev.Payload)
	}

	// Act 3 — the primary BDN dies; rediscovery succeeds via the secondary.
	tb.BDNs[0].Close()
	d2 := tb.NewDiscoverer(simnet.SiteBloomington, "story-client-2", d.Config())
	res2, err := d2.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Via != core.ViaBDN || res2.BDN == res.BDN {
		t.Fatalf("failover did not engage: via=%s bdn=%s", res2.Via, res2.BDN)
	}
	// The dead primary refuses the dial, so no ack timeout is waited out.
	if got, want := res2.Timing.Get(core.PhaseRequestIssue), 7500*time.Microsecond; got != want {
		t.Fatalf("failover issued the request in %v, want %v", got, want)
	}
}
