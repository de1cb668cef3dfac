//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package testbed

import (
	"errors"
	"slices"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the deployment's, so every model-time wait takes exactly its length and a
// run is a function of its seed. f runs as a subtest, so the cleanups it
// registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

// laneNew deploys o and closes it when the test ends. New returns at the one
// instant its seed settles at, so the test keeps one phase against every
// periodic loop, a collector's scrape grid among them.
func laneNew(t *testing.T, o Options) *Testbed {
	t.Helper()
	tb, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// advance lets d of model time pass and everything it woke settle, so what
// the test does next never races a goroutine woken at the same instant.
func advance(d time.Duration) {
	time.Sleep(d)
	synctest.Wait()
}

// until advances model time a millisecond at a time until cond holds, and
// returns how much passed: a lane test asserts that instant exactly. It
// gives up after limit.
func until(t *testing.T, limit time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for synctest.Wait(); !cond(); advance(time.Millisecond) {
		if time.Since(start) >= limit {
			t.Fatalf("%s: not within %v of model time", what, limit)
		}
	}
	return time.Since(start)
}

// chaosOptions is a fully self-healing deployment: supervised links and
// registrations, heartbeat liveness, periodic advertisement refresh with TTL
// expiry. Intervals are model time.
func chaosOptions() Options {
	return Options{
		Topology:          topology.Linear,
		Supervise:         true,
		Heartbeat:         200 * time.Millisecond,
		AdvertiseInterval: 500 * time.Millisecond, // TTL defaults to 1.5s
		SweepInterval:     250 * time.Millisecond,
	}
}

// at pins a fault helper to a schedule offset.
func at(offset time.Duration, f Fault) Fault {
	f.At = offset
	return f
}

// discoveryConfig returns client settings sized for the 5-broker testbed.
func discoveryConfig() core.Config {
	return core.Config{
		CollectWindow: 1500 * time.Millisecond,
		MaxResponses:  5,
	}
}

// TestNewReturnsSettled: the moment New returns, the deployment is the one
// asked for — no sleep, no poll. Twenty seeds of the linear five-broker
// deployment of Figure 10: the one registering broker is listed and every
// edge of the chain is up in both directions.
func TestNewReturnsSettled(t *testing.T) {
	exact(t, func(t *testing.T) {
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
	})
}

func TestDiscoveryNoPath(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{Topology: topology.Unconnected, Seed: 16, NoBDN: true})
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
		if _, err := d.Discover(); !errors.Is(err, core.ErrNoPath) {
			t.Fatalf("err = %v, want ErrNoPath", err)
		}
	})
}

func TestUnconnectedDiscovery(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{Topology: topology.Unconnected, Seed: 11})
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
		// Nearest broker to Bloomington is Indianapolis (3 ms RTT), ahead of
		// NCSA (10 ms), UMN (22 ms), FSU (35 ms) and Cardiff (120 ms).
		if sel := res.Selected.LogicalAddress; sel != "broker-indianapolis" {
			t.Fatalf("selected %s, want broker-indianapolis", sel)
		}
		if got, want := res.Timing.Total(), 344800*time.Microsecond; got != want {
			t.Fatalf("discovery took %v, want %v", got, want)
		}
	})
}

func TestLoadAwareSelectionPrefersIdleLocalAlternative(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Two brokers at the same site: one heavily loaded, one fresh. The fresh
		// one must win (paper §8 advantage 3).
		specs := []BrokerSpec{
			{Site: simnet.SiteIndianapolis, Name: "busy", Register: true,
				Usage: busyUsage()},
			{Site: simnet.SiteIndianapolis, Name: "fresh", Register: true,
				Usage: freshUsage()},
		}
		tb := laneNew(t, Options{Topology: topology.Unconnected, Seed: 18, Brokers: specs})
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
	})
}

func TestBrokerJoinsNetworkViaDiscovery(t *testing.T) {
	exact(t, func(t *testing.T) {
		// The second kind of requesting entity from the paper's problem
		// statement: a new broker discovers the nearest broker, links to it,
		// registers with the BDN, and is immediately part of the network.
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 32, InjectPolicy: bdn.InjectClosestFarthest})

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
		// Indianapolis (3 ms) is the nearest.
		if linked.LogicalAddress != "broker-indianapolis" {
			t.Fatalf("joined via %s, want broker-indianapolis", linked.LogicalAddress)
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
	})
}

func TestStarDiscoveryReachesAllViaNetwork(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{
			Topology:     topology.Star,
			Seed:         12,
			InjectPolicy: bdn.InjectClosestFarthest,
		})
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
	})
}

func TestLinearDiscoveryViaChain(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Only the first broker registers; the rest are reachable solely through
		// the chain (paper Figure 10).
		specs := PaperBrokers()
		for i := range specs {
			specs[i].Register = i == 0
		}
		tb := laneNew(t, Options{Topology: topology.Linear, Seed: 13, Brokers: specs})
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
	})
}

func TestBDNFailoverToSecondary(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 31, BDNCount: 2,
			InjectPolicy: bdn.InjectClosestFarthest})
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
	})
}

func TestRoutedModeTestbed(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 33,
			InjectPolicy: bdn.InjectClosestFarthest,
			Routing:      broker.RouteSubscriptions})
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Responses) != 5 {
			t.Fatalf("discovery degraded in routed mode: %d responses", len(res.Responses))
		}
	})
}

func TestDiscoverySurvivesDuplicatedDatagrams(t *testing.T) {
	exact(t, func(t *testing.T) {
		// With every inter-site datagram duplicated, the Discoverer's response
		// and pong dedup must keep results correct.
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 35,
			InjectPolicy: bdn.InjectClosestFarthest, DuplicateProb: 0.8})
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
	})
}

func TestDiscoveryDuringBrokerChurn(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Brokers crash mid-collection: discovery still completes with the
		// survivors (paper §7's fluid network).
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 36,
			InjectPolicy: bdn.InjectClosestFarthest})

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
	})
}

func TestMulticastOnlyDiscovery(t *testing.T) {
	exact(t, func(t *testing.T) {
		// No BDN at all: the request must reach brokers via multicast. Realm
		// scoping means only the Indiana broker hears a Bloomington client
		// (paper Figure 12: "multicast was disabled outside the lab").
		tb := laneNew(t, Options{
			Topology:  topology.Unconnected,
			Seed:      14,
			NoBDN:     true,
			Multicast: true,
		})

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
	})
}

func TestCachedTargetSetFallback(t *testing.T) {
	exact(t, func(t *testing.T) {
		// "If the requesting node is arriving after a prolonged disconnect, and
		// if none of the BDNs are available, the requesting node can issue a
		// broker request to one or more of the nodes in the target set."
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 15, InjectPolicy: bdn.InjectClosestFarthest})

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
	})
}

func TestDiscoveryUnderPacketLoss(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Responses and pings are UDP; with 20% loss discovery must still
		// complete (paper §7: "sustains loss of both the discovery requests ...
		// and discovery responses").
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 17,
			InjectPolicy: bdn.InjectClosestFarthest, Loss: 0.2})
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
	})
}

func TestRetransmissionSurvivesAckLoss(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Stream traffic is reliable in the simulator, so exercise the
		// retransmission path by pointing the client at a BDN that exists but
		// also at one that doesn't: the dial failure must fall through to the
		// live BDN.
		tb := laneNew(t, Options{Topology: topology.Unconnected, Seed: 19})
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
	})
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
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{Topology: topology.Star, Seed: 30, BDNCount: 3,
			InjectPolicy: bdn.InjectClosestFarthest})
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
	})
}
