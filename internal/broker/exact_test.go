//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/simnet"
	"narada/internal/topics"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the network's, so a wait on a broker's clock takes exactly its
// model length. f runs as a subtest, so the cleanups it registers run inside
// the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

func laneEnv(t *testing.T, seed int64) *env {
	return &env{net: simnet.NewPaperWAN(simnet.Config{Seed: seed}), t: t, rng: rand.New(rand.NewSource(seed))}
}

// sendDiscoveryRequest fires a request at the broker over UDP and collects
// the response (if any) on a fresh endpoint.
func sendDiscoveryRequest(t *testing.T, e *env, b *Broker, req *core.DiscoveryRequest, wait time.Duration) *core.DiscoveryResponse {
	t.Helper()
	node, _ := e.node(simnet.SiteBloomington, fmt.Sprintf("probe%d", e.rng.Int()))
	pc, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	req.ResponseAddr = pc.LocalAddr()
	ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
	ev.Source = req.Requester
	if err := pc.Send(b.UDPAddr(), event.Encode(ev)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := pc.RecvTimeout(wait)
	if err != nil {
		return nil
	}
	got, err := event.Decode(payload)
	if err != nil || got.Type != event.TypeDiscoveryResponse {
		return nil
	}
	resp, err := core.DecodeDiscoveryResponse(got.Payload)
	if err != nil {
		return nil
	}
	return resp
}

func TestLocalPubSub(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 3)
		b := e.broker(simnet.SiteUMN, "b1", Config{})
		node, _ := e.node(simnet.SiteUMN, "client")
		c, err := Connect(node, b.StreamAddr(), "client")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe("sports/*"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the subscription", func() bool { return matchIDs(b.subs, "sports/cricket") != nil })

		pub, err := Connect(node, b.StreamAddr(), "publisher")
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		if err := pub.Publish("sports/cricket", []byte("score")); err != nil {
			t.Fatal(err)
		}
		ev, err := c.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Topic != "sports/cricket" || string(ev.Payload) != "score" {
			t.Fatalf("got %q on %q", ev.Payload, ev.Topic)
		}
	})
}

func TestSubscriberDoesNotReceiveUnmatched(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 4)
		b := e.broker(simnet.SiteUMN, "b1", Config{})
		node, _ := e.node(simnet.SiteUMN, "client")
		c, _ := Connect(node, b.StreamAddr(), "client")
		defer c.Close()
		_ = c.Subscribe("sports/cricket")
		e.net.Clock().Sleep(50 * time.Millisecond)
		_ = c.Publish("news/weather", []byte("rain"))
		if _, err := c.Next(300 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("unmatched event delivered: %v", err)
		}
	})
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 5)
		b := e.broker(simnet.SiteUMN, "b1", Config{})
		node, _ := e.node(simnet.SiteUMN, "client")
		c, _ := Connect(node, b.StreamAddr(), "client")
		defer c.Close()
		_ = c.Subscribe("a/b")
		e.net.Clock().Sleep(50 * time.Millisecond)
		_ = c.Unsubscribe("a/b")
		e.net.Clock().Sleep(50 * time.Millisecond)
		_ = c.Publish("a/b", []byte("x"))
		if _, err := c.Next(300 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("event delivered after unsubscribe: %v", err)
		}
	})
}

func TestPubSubAcrossLinks(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Events published at one broker must reach subscribers at a broker
		// three links away (flooding with TTL).
		e := laneEnv(t, 6)
		brokers := []*Broker{
			e.broker(simnet.SiteIndianapolis, "b1", Config{}),
			e.broker(simnet.SiteUMN, "b2", Config{}),
			e.broker(simnet.SiteNCSA, "b3", Config{}),
			e.broker(simnet.SiteFSU, "b4", Config{}),
		}
		for i := 1; i < len(brokers); i++ {
			if err := brokers[i].LinkTo(brokers[i-1].StreamAddr()); err != nil {
				t.Fatal(err)
			}
		}
		e.net.Clock().Sleep(100 * time.Millisecond)

		node, _ := e.node(simnet.SiteFSU, "sub")
		c, _ := Connect(node, brokers[3].StreamAddr(), "sub")
		defer c.Close()
		_ = c.Subscribe("wan/**")
		e.net.Clock().Sleep(100 * time.Millisecond)

		if err := brokers[0].Publish("wan/test/hello", []byte("across")); err != nil {
			t.Fatal(err)
		}
		ev, err := c.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(ev.Payload) != "across" {
			t.Fatalf("payload = %q", ev.Payload)
		}
	})
}

func TestFloodDedupNoDuplicateDelivery(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A triangle has two paths to every broker: subscribers must still see
		// each event exactly once.
		e := laneEnv(t, 7)
		b1 := e.broker(simnet.SiteIndianapolis, "t1", Config{})
		b2 := e.broker(simnet.SiteUMN, "t2", Config{})
		b3 := e.broker(simnet.SiteNCSA, "t3", Config{})
		for _, pair := range [][2]*Broker{{b2, b1}, {b3, b1}, {b3, b2}} {
			if err := pair[0].LinkTo(pair[1].StreamAddr()); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the triangle's links", func() bool {
			return b1.LinkCount() == 2 && b2.LinkCount() == 2 && b3.LinkCount() == 2
		})

		node, _ := e.node(simnet.SiteNCSA, "sub")
		c, _ := Connect(node, b3.StreamAddr(), "sub")
		defer c.Close()
		_ = c.Subscribe("x/y")
		waitFor(t, "the subscription", func() bool { return matchIDs(b3.subs, "x/y") != nil })

		if err := b1.Publish("x/y", []byte("once")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if ev, err := c.Next(500 * time.Millisecond); err == nil {
			t.Fatalf("duplicate delivery: %v on %s", ev.ID, ev.Topic)
		}
	})
}

func TestLinkCountTracked(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 8)
		b1 := e.broker(simnet.SiteUMN, "b1", Config{})
		b2 := e.broker(simnet.SiteNCSA, "b2", Config{})
		if err := b2.LinkTo(b1.StreamAddr()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "link counts 1/1", func() bool { return b1.LinkCount() == 1 && b2.LinkCount() == 1 })
		waitFor(t, "sampler links = 1", func() bool { return b1.Usage().Links == 1 })
	})
}

func TestDiscoveryRequestOverUDP(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 9)
		b := e.broker(simnet.SiteIndianapolis, "b1", Config{Hostname: "complexity", Geo: "Indianapolis"})
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", Realm: "bloomington"}
		resp := sendDiscoveryRequest(t, e, b, req, 2*time.Second)
		if resp == nil {
			t.Fatal("no discovery response")
		}
		if resp.RequestID != req.ID {
			t.Fatal("response correlates to wrong request")
		}
		if resp.Broker.LogicalAddress != "b1" || resp.Broker.Endpoint("udp") == "" ||
			resp.Broker.Endpoint("tcp") == "" {
			t.Fatalf("incomplete broker info: %+v", resp.Broker)
		}
		if resp.Usage.TotalMemBytes == 0 {
			t.Fatal("usage metrics missing")
		}
		if resp.Timestamp.IsZero() {
			t.Fatal("NTP timestamp missing")
		}
	})
}

func TestDiscoveryRequestDeduplicated(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 10)
		b := e.broker(simnet.SiteIndianapolis, "b1", Config{})
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe"}
		if resp := sendDiscoveryRequest(t, e, b, req, 2*time.Second); resp == nil {
			t.Fatal("first request got no response")
		}
		// Same UUID again: the broker must not expend cycles on it.
		if resp := sendDiscoveryRequest(t, e, b, req, 500*time.Millisecond); resp != nil {
			t.Fatal("duplicate request answered")
		}
	})
}

func TestResponsePolicyCredential(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 11)
		b := e.broker(simnet.SiteIndianapolis, "b1", Config{
			Policy: core.ResponsePolicy{RequiredCredential: []byte("sesame")},
		})
		noCred := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe"}
		if resp := sendDiscoveryRequest(t, e, b, noCred, 500*time.Millisecond); resp != nil {
			t.Fatal("request without credential answered")
		}
		withCred := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", Credentials: []byte("sesame")}
		if resp := sendDiscoveryRequest(t, e, b, withCred, 2*time.Second); resp == nil {
			t.Fatal("credentialed request not answered")
		}
	})
}

func TestResponsePolicyRealm(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 12)
		b := e.broker(simnet.SiteIndianapolis, "b1", Config{
			Policy: core.ResponsePolicy{AllowedRealms: []string{"umn"}},
		})
		wrongRealm := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", Realm: "cardiff"}
		if resp := sendDiscoveryRequest(t, e, b, wrongRealm, 500*time.Millisecond); resp != nil {
			t.Fatal("request from disallowed realm answered")
		}
	})
}

func TestPingPongOverUDP(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 13)
		b := e.broker(simnet.SiteIndianapolis, "b1", Config{})
		node, _ := e.node(simnet.SiteBloomington, "pinger")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()

		sent := node.Clock().Now()
		ping := &core.Ping{ID: uuid.New(), SentAt: sent, Seq: 3}
		ev := event.New(event.TypePing, "", core.EncodePing(ping))
		if err := pc.Send(b.UDPAddr(), event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		payload, _, err := pc.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got, err := event.Decode(payload)
		if err != nil || got.Type != event.TypePong {
			t.Fatalf("reply type %v err %v", got.Type, err)
		}
		pong, err := core.DecodePong(got.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if pong.ID != ping.ID || pong.Seq != 3 || !pong.EchoSent.Equal(sent) {
			t.Fatalf("pong fields wrong: %+v", pong)
		}
		if pong.Responder != "b1" {
			t.Fatalf("responder = %q", pong.Responder)
		}
	})
}

func TestDiscoveryRequestFloodedAcrossChain(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Request injected at one end of a 3-broker chain: all three respond.
		e := laneEnv(t, 14)
		b1 := e.broker(simnet.SiteIndianapolis, "c1", Config{})
		b2 := e.broker(simnet.SiteUMN, "c2", Config{})
		b3 := e.broker(simnet.SiteNCSA, "c3", Config{})
		_ = b2.LinkTo(b1.StreamAddr())
		_ = b3.LinkTo(b2.StreamAddr())
		e.net.Clock().Sleep(100 * time.Millisecond)

		node, _ := e.node(simnet.SiteBloomington, "probe")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", ResponseAddr: pc.LocalAddr()}
		ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
		if err := pc.Send(b1.UDPAddr(), event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		deadline := node.Clock().Now().Add(3 * time.Second)
		for len(seen) < 3 {
			remaining := deadline.Sub(node.Clock().Now())
			if remaining <= 0 {
				break
			}
			payload, _, err := pc.RecvTimeout(remaining)
			if err != nil {
				break
			}
			got, err := event.Decode(payload)
			if err != nil || got.Type != event.TypeDiscoveryResponse {
				continue
			}
			resp, err := core.DecodeDiscoveryResponse(got.Payload)
			if err == nil {
				seen[resp.Broker.LogicalAddress] = true
			}
		}
		if len(seen) != 3 {
			t.Fatalf("responses from %d brokers, want 3: %v", len(seen), seen)
		}
	})
}

func TestHeartbeatKeepsHealthyLinkAlive(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Five 2 s heartbeat intervals pass; a healthy link survives them all.
		e := laneEnv(t, 20)
		b1 := e.broker(simnet.SiteUMN, "hb1", Config{HeartbeatInterval: 2 * time.Second})
		b2 := e.broker(simnet.SiteNCSA, "hb2", Config{HeartbeatInterval: 2 * time.Second})
		if err := b2.LinkTo(b1.StreamAddr()); err != nil {
			t.Fatal(err)
		}
		e.net.Clock().Sleep(10 * time.Second) // several heartbeat intervals
		if b1.LinkCount() != 1 || b2.LinkCount() != 1 {
			t.Fatalf("healthy link dropped: %d/%d", b1.LinkCount(), b2.LinkCount())
		}
	})
}

func TestHeartbeatDropsPartitionedLink(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 21)
		b1 := e.broker(simnet.SiteUMN, "hp1", Config{HeartbeatInterval: 500 * time.Millisecond})
		b2 := e.broker(simnet.SiteNCSA, "hp2", Config{HeartbeatInterval: 500 * time.Millisecond})
		if err := b2.LinkTo(b1.StreamAddr()); err != nil {
			t.Fatal(err)
		}
		e.net.Clock().Sleep(300 * time.Millisecond)
		e.net.Partition(simnet.SiteUMN, simnet.SiteNCSA)
		// Heartbeat sends now fail (no route); both ends must shed the link.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if b1.LinkCount() == 0 && b2.LinkCount() == 0 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("partitioned link survived: %d/%d", b1.LinkCount(), b2.LinkCount())
	})
}

func TestDiscoveryRequestHopsIncrement(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Hop counts increase along the dissemination chain (diagnostics).
		e := laneEnv(t, 22)
		b1 := e.broker(simnet.SiteIndianapolis, "h1", Config{})
		b2 := e.broker(simnet.SiteUMN, "h2", Config{})
		_ = b2.LinkTo(b1.StreamAddr())
		e.net.Clock().Sleep(100 * time.Millisecond)

		node, _ := e.node(simnet.SiteBloomington, "hopprobe")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", ResponseAddr: pc.LocalAddr()}
		ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
		if err := pc.Send(b1.UDPAddr(), event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		// Both brokers respond; b2 received the request with Hops=1. The hop
		// count is diagnostic (not echoed in responses), so just assert both
		// responses arrive, proving the re-encoded forward decoded cleanly.
		for i := 0; i < 2; i++ {
			if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
				t.Fatalf("response %d missing after hop-forwarding: %v", i, err)
			}
		}
	})
}

func TestAdvertisementRelayViaClient(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A client can relay an advertisement event; the broker republishes it
		// on the public advertisement topic so subscribed BDNs learn it.
		e := laneEnv(t, 23)
		b := e.broker(simnet.SiteUMN, "relay-broker", Config{})
		node, _ := e.node(simnet.SiteUMN, "watcher")
		watcher, _ := Connect(node, b.StreamAddr(), "watcher")
		defer watcher.Close()
		_ = watcher.Subscribe(topics.AdvertisementTopic)
		waitFor(t, "the subscription", func() bool { return matchIDs(b.subs, topics.AdvertisementTopic) != nil })

		adv := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "announced"}}
		relayNode, _ := e.node(simnet.SiteUMN, "relay")
		relayConn, err := relayNode.Dial(b.StreamAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer relayConn.Close()
		// Send a raw TypeAdvertisement event: the broker must republish it on
		// the public advertisement topic.
		ev := event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(adv))
		if err := relayConn.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		got, err := watcher.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := core.DecodeAdvertisement(got.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Broker.LogicalAddress != "announced" {
			t.Fatalf("relayed advertisement for %q", decoded.Broker.LogicalAddress)
		}
	})
}

func TestBrokerMulticastRequestPath(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A broker joined to the discovery group answers multicast requests.
		e := laneEnv(t, 24)
		b := e.broker(simnet.SiteIndianapolis, "mc-broker", Config{MulticastGroup: "narada/discovery"})
		_ = b
		node, _ := e.node(simnet.SiteIndianapolis, "mc-client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "mc", ResponseAddr: pc.LocalAddr()}
		ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
		if err := pc.SendGroup("narada/discovery", event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		payload, _, err := pc.RecvTimeout(3 * time.Second)
		if err != nil {
			t.Fatal("no response to multicast request")
		}
		got, err := event.Decode(payload)
		if err != nil || got.Type != event.TypeDiscoveryResponse {
			t.Fatalf("reply type %v err %v", got, err)
		}
	})
}

func TestPublishTTLBoundsFlood(t *testing.T) {
	exact(t, func(t *testing.T) {
		// An event published with TTL smaller than the chain length must not
		// reach the far end (flood termination).
		e := laneEnv(t, 25)
		b1 := e.broker(simnet.SiteIndianapolis, "ttl1", Config{})
		b2 := e.broker(simnet.SiteUMN, "ttl2", Config{})
		b3 := e.broker(simnet.SiteNCSA, "ttl3", Config{})
		_ = b2.LinkTo(b1.StreamAddr())
		_ = b3.LinkTo(b2.StreamAddr())
		e.net.Clock().Sleep(100 * time.Millisecond)

		node, _ := e.node(simnet.SiteNCSA, "farsub")
		c, _ := Connect(node, b3.StreamAddr(), "farsub")
		defer c.Close()
		_ = c.Subscribe("ttl/test")
		e.net.Clock().Sleep(100 * time.Millisecond)

		// Hand-craft a publish with TTL=1: b1 forwards to b2 (TTL 0), b2 must
		// not forward to b3.
		nodePub, _ := e.node(simnet.SiteIndianapolis, "pub")
		pubConn, err := nodePub.Dial(b1.StreamAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer pubConn.Close()
		ev := event.New(event.TypePublish, "ttl/test", []byte("short-lived"))
		ev.TTL = 1
		if err := pubConn.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(500 * time.Millisecond); err == nil {
			t.Fatal("TTL-1 event crossed two links")
		}
	})
}
