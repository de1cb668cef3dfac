package testbed

import (
	"errors"
	"slices"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// discoveryConfig returns client settings sized for the 5-broker testbed.
func discoveryConfig() core.Config {
	return core.Config{
		CollectWindow: 1500 * time.Millisecond,
		MaxResponses:  5,
	}
}

func TestUnconnectedDiscovery(t *testing.T) {
	// Modest time scale: ping RTTs are measured through the scaled clock, so
	// high scales amplify scheduler jitter (especially under -race) into
	// model-time noise that can blur nearby sites.
	tb, err := New(Options{Topology: topology.Unconnected, Seed: 11, Scale: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.BDN.BrokerCount() != 5 {
		t.Fatalf("BDN knows %d brokers, want 5", tb.BDN.BrokerCount())
	}

	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Via != core.ViaBDN {
		t.Fatalf("Via = %s, want bdn", res.Via)
	}
	if res.BDN != "gridservicelocator.org" {
		t.Fatalf("BDN = %q", res.BDN)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("responses = %d, want 5 (unconnected O(N) fan-out must reach all registered)", len(res.Responses))
	}
	if !res.PingDecided {
		t.Fatal("selection did not use ping measurements")
	}
	// Nearest broker to Bloomington is Indianapolis (3 ms RTT); NCSA (10 ms)
	// is tolerated for scheduler noise under instrumented builds. The far
	// sites (UMN 22 ms, FSU 35 ms, Cardiff 120 ms) must never win.
	sel := res.Selected.LogicalAddress
	if sel != "broker-indianapolis" && sel != "broker-ncsa" {
		t.Fatalf("selected %s, want a nearby broker", sel)
	}
	if res.Timing.Total() <= 0 {
		t.Fatal("no timing recorded")
	}
}

func TestStarDiscoveryReachesAllViaNetwork(t *testing.T) {
	tb, err := New(Options{
		Topology:     topology.Star,
		Seed:         12,
		InjectPolicy: bdn.InjectClosestFarthest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if len(tb.Edges) != 4 {
		t.Fatalf("star edges = %d, want 4", len(tb.Edges))
	}

	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	// Injection hits only 2 brokers, but the hub floods to everyone.
	if len(res.Responses) != 5 {
		t.Fatalf("responses = %d, want 5 via network dissemination", len(res.Responses))
	}
}

func TestLinearDiscoveryViaChain(t *testing.T) {
	// Only the first broker registers; the rest are reachable solely through
	// the chain (paper Figure 10).
	specs := PaperBrokers()
	for i := range specs {
		specs[i].Register = i == 0
	}
	tb, err := New(Options{Topology: topology.Linear, Seed: 13, Brokers: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.BDN.BrokerCount() != 1 {
		t.Fatalf("BDN knows %d brokers, want 1", tb.BDN.BrokerCount())
	}

	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("responses = %d, want all 5 via the chain", len(res.Responses))
	}
}

// TestNewReturnsSettled: the moment New returns, the deployment is the one
// asked for — no sleep, no poll. Twenty seeds of the linear five-broker
// deployment of Figure 10: the one registering broker is listed and every
// edge of the chain is up in both directions.
func TestNewReturnsSettled(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		specs := PaperBrokers()
		for i := range specs {
			specs[i].Register = i == 0
		}
		tb, err := New(Options{Topology: topology.Linear, Seed: seed, Brokers: specs})
		if err != nil {
			t.Fatal(err)
		}
		if n := tb.BDN.BrokerCount(); n != 1 {
			t.Errorf("seed %d: BDN knows %d brokers, want 1", seed, n)
		}
		if len(tb.Edges) != 4 {
			t.Errorf("seed %d: %d edges, want 4", seed, len(tb.Edges))
		}
		for _, e := range tb.Edges {
			if !slices.Contains(tb.BrokerByName(e.From).Peers(), e.To) ||
				!slices.Contains(tb.BrokerByName(e.To).Peers(), e.From) {
				t.Errorf("seed %d: link %s<->%s not up in both directions", seed, e.From, e.To)
			}
		}
		tb.Close()
	}
}

func TestMulticastOnlyDiscovery(t *testing.T) {
	// No BDN at all: the request must reach brokers via multicast. Realm
	// scoping means only the Indiana broker hears a Bloomington client
	// (paper Figure 12: "multicast was disabled outside the lab").
	tb, err := New(Options{
		Topology:  topology.Unconnected,
		Seed:      14,
		NoBDN:     true,
		Multicast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	cfg := discoveryConfig()
	cfg.MaxResponses = 1
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Via != core.ViaMulticast {
		t.Fatalf("Via = %s, want multicast", res.Via)
	}
	if len(res.Responses) != 1 || res.Responses[0].Response.Broker.LogicalAddress != "broker-indianapolis" {
		t.Fatalf("multicast crossed realms: %d responses", len(res.Responses))
	}
}

func TestCachedTargetSetFallback(t *testing.T) {
	// "If the requesting node is arriving after a prolonged disconnect, and
	// if none of the BDNs are available, the requesting node can issue a
	// broker request to one or more of the nodes in the target set."
	tb, err := New(Options{Topology: topology.Star, Seed: 15, InjectPolicy: bdn.InjectClosestFarthest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	if _, err := d.Discover(); err != nil {
		t.Fatal(err)
	}
	if len(d.LastTargetSet()) == 0 {
		t.Fatal("no cached target set after first discovery")
	}

	// Kill the BDN; rediscovery must fall back to the cached set.
	tb.BDN.Close()
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Via != core.ViaCached {
		t.Fatalf("Via = %s, want cached", res.Via)
	}
	if len(res.Responses) == 0 {
		t.Fatal("cached-set rediscovery yielded no responses")
	}
}

func TestDiscoveryNoPath(t *testing.T) {
	tb, err := New(Options{Topology: topology.Unconnected, Seed: 16, NoBDN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	if _, err := d.Discover(); !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestDiscoveryUnderPacketLoss(t *testing.T) {
	// Responses and pings are UDP; with 20% loss discovery must still
	// complete (paper §7: "sustains loss of both the discovery requests ...
	// and discovery responses").
	tb, err := New(Options{Topology: topology.Star, Seed: 17,
		InjectPolicy: bdn.InjectClosestFarthest, Loss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cfg := discoveryConfig()
	cfg.CollectWindow = 1 * time.Second
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) == 0 {
		t.Fatal("no responses under loss")
	}
}

func TestLoadAwareSelectionPrefersIdleLocalAlternative(t *testing.T) {
	// Two brokers at the same site: one heavily loaded, one fresh. The fresh
	// one must win (paper §8 advantage 3).
	specs := []BrokerSpec{
		{Site: simnet.SiteIndianapolis, Name: "busy", Register: true,
			Usage: busyUsage()},
		{Site: simnet.SiteIndianapolis, Name: "fresh", Register: true,
			Usage: freshUsage()},
	}
	tb, err := New(Options{Topology: topology.Unconnected, Seed: 18, Brokers: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cfg := discoveryConfig()
	cfg.MaxResponses = 2
	cfg.Selection.TargetSetSize = 1 // force weighting to decide alone
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected.LogicalAddress != "fresh" {
		t.Fatalf("selected %s, want fresh", res.Selected.LogicalAddress)
	}
}

func TestRetransmissionSurvivesAckLoss(t *testing.T) {
	// Stream traffic is reliable in the simulator, so exercise the
	// retransmission path by pointing the client at a BDN that exists but
	// also at one that doesn't: the dial failure must fall through to the
	// live BDN.
	tb, err := New(Options{Topology: topology.Unconnected, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cfg := discoveryConfig()
	cfg.BDNAddrs = []string{"bloomington/ghost:1", tb.BDN.Addr()}
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Via != core.ViaBDN {
		t.Fatalf("Via = %s", res.Via)
	}
}

func busyUsage() (u metrics.Usage) {
	u.TotalMemBytes = 512 * mib
	u.UsedMemBytes = 480 * mib
	u.Links = 40
	u.CPULoad = 0.9
	return
}

func freshUsage() (u metrics.Usage) {
	u.TotalMemBytes = 512 * mib
	u.UsedMemBytes = 32 * mib
	u.CPULoad = 0.01
	return
}

func TestMultiBDNDeployment(t *testing.T) {
	tb, err := New(Options{Topology: topology.Star, Seed: 30, BDNCount: 3,
		InjectPolicy: bdn.InjectClosestFarthest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if len(tb.BDNs) != 3 {
		t.Fatalf("BDNs = %d, want 3", len(tb.BDNs))
	}
	for i, d := range tb.BDNs {
		if d.BrokerCount() != 5 {
			t.Fatalf("BDN %d knows %d brokers, want 5", i, d.BrokerCount())
		}
	}
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	if len(d.Config().BDNAddrs) != 3 {
		t.Fatalf("client has %d BDN addrs", len(d.Config().BDNAddrs))
	}
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.BDN != "gridservicelocator.org" {
		t.Fatalf("served by %q, want the primary", res.BDN)
	}
}

func TestBDNFailoverToSecondary(t *testing.T) {
	tb, err := New(Options{Topology: topology.Star, Seed: 31, BDNCount: 2,
		InjectPolicy: bdn.InjectClosestFarthest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.BDNs[0].Close() // primary gone

	// Default ack timeout and retransmits: this asserts who served, and
	// abl-failover measures how fast.
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Via != core.ViaBDN || res.BDN != "gridservicelocator.com" {
		t.Fatalf("via=%s bdn=%q, want the secondary BDN", res.Via, res.BDN)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("responses = %d", len(res.Responses))
	}
}

func TestBrokerJoinsNetworkViaDiscovery(t *testing.T) {
	// The second kind of requesting entity from the paper's problem
	// statement: a new broker discovers the nearest broker, links to it,
	// registers with the BDN, and is immediately part of the network.
	tb, err := New(Options{Topology: topology.Star, Seed: 32, Scale: 25,
		InjectPolicy: bdn.InjectClosestFarthest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	node := tb.ClientNode(simnet.SiteBloomington, "joiner-node")
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	joiner, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: "joiner",
		Realm:          simnet.SiteBloomington,
		Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 29}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	d := tb.NewDiscoverer(simnet.SiteBloomington, "joiner", discoveryConfig())
	linked, err := joiner.JoinNetwork(d)
	if err != nil {
		t.Fatal(err)
	}
	// Indianapolis (3 ms) is the nearest; NCSA (10 ms) tolerated for
	// scheduler noise under instrumented builds.
	if linked.LogicalAddress != "broker-indianapolis" && linked.LogicalAddress != "broker-ncsa" {
		t.Fatalf("joined via %s, want a nearby broker", linked.LogicalAddress)
	}
	tb.Net.Clock().Sleep(100 * time.Millisecond) // link registers asynchronously
	if joiner.LinkCount() != 1 {
		t.Fatalf("joiner links = %d", joiner.LinkCount())
	}
	if err := joiner.RegisterWithBDN(tb.BDN.Addr()); err != nil {
		t.Fatal(err)
	}
	tb.Net.Clock().Sleep(300 * time.Millisecond)

	// Events published at the joiner reach subscribers across the network.
	sub := tb.ClientNode(simnet.SiteCardiff, "sub")
	c, err := broker.Connect(sub, tb.BrokerByName("broker-cardiff").StreamAddr(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("joined/up"); err != nil {
		t.Fatal(err)
	}
	tb.Net.Clock().Sleep(300 * time.Millisecond)
	if err := joiner.Publish("joined/up", []byte("hello network")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(10 * time.Second); err != nil {
		t.Fatalf("event from joined broker never arrived: %v", err)
	}
}

func TestRoutedModeTestbed(t *testing.T) {
	tb, err := New(Options{Topology: topology.Star, Seed: 33,
		InjectPolicy: bdn.InjectClosestFarthest,
		Routing:      broker.RouteSubscriptions})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("discovery degraded in routed mode: %d responses", len(res.Responses))
	}
}

func TestDiscoverySurvivesDuplicatedDatagrams(t *testing.T) {
	// With every inter-site datagram duplicated, the Discoverer's response
	// and pong dedup must keep results correct.
	tb, err := New(Options{Topology: topology.Star, Seed: 35,
		InjectPolicy: bdn.InjectClosestFarthest, DuplicateProb: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("responses = %d under duplication, want 5 distinct", len(res.Responses))
	}
	if !res.PingDecided {
		t.Fatal("ping decision degraded under duplication")
	}
}

func TestDiscoveryDuringBrokerChurn(t *testing.T) {
	// Brokers crash mid-collection: discovery still completes with the
	// survivors (paper §7's fluid network).
	tb, err := New(Options{Topology: topology.Star, Seed: 36,
		InjectPolicy: bdn.InjectClosestFarthest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Kill two brokers.
	tb.BrokerByName("broker-cardiff").Close()
	tb.BrokerByName("broker-fsu").Close()
	tb.Net.Clock().Sleep(100 * time.Millisecond)

	cfg := discoveryConfig()
	cfg.CollectWindow = 800 * time.Millisecond
	cfg.MaxResponses = 0 // window-bounded: dead brokers cannot be waited out
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 3 {
		t.Fatalf("responses = %d, want the 3 survivors", len(res.Responses))
	}
	if res.Selected.LogicalAddress == "broker-cardiff" ||
		res.Selected.LogicalAddress == "broker-fsu" {
		t.Fatalf("selected a dead broker: %s", res.Selected.LogicalAddress)
	}
}
