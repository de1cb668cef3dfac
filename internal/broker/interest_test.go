//go:build goexperiment.synctest

package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// routedChain builds a broker chain in RouteSubscriptions mode.
func routedChain(t *testing.T, e *env, n int) []*Broker {
	t.Helper()
	sites := []string{simnet.SiteIndianapolis, simnet.SiteUMN, simnet.SiteNCSA,
		simnet.SiteFSU, simnet.SiteCardiff}
	brokers := make([]*Broker, n)
	for i := range brokers {
		brokers[i] = e.broker(sites[i%len(sites)], fmt.Sprintf("r%d", i),
			Config{Routing: RouteSubscriptions})
	}
	for i := 1; i < n; i++ {
		if err := brokers[i].LinkTo(brokers[i-1].StreamAddr()); err != nil {
			t.Fatal(err)
		}
	}
	e.net.Clock().Sleep(200 * time.Millisecond)
	return brokers
}

// awaitInterest blocks until br would (want) or would no longer (!want) route
// a publish on topic somewhere: tests wait on the state that the hop-by-hop
// interest propagation reaches before they publish.
func awaitInterest(t *testing.T, br *Broker, topic string, want bool) {
	t.Helper()
	waitFor(t, fmt.Sprintf("interest in %q at %s to become %v", topic, br.LogicalAddress(), want),
		func() bool { return (matchIDs(br.subs, topic) != nil) == want })
}

func TestRoutedDeliveryAcrossChain(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 40)
		brokers := routedChain(t, e, 4)

		node, _ := e.node(simnet.SiteFSU, "sub")
		c, err := Connect(node, brokers[3].StreamAddr(), "sub")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe("routed/data"); err != nil {
			t.Fatal(err)
		}
		// Interest must propagate hop by hop back to broker 0.
		awaitInterest(t, brokers[0], "routed/data", true)

		if err := brokers[0].Publish("routed/data", []byte("via-interest")); err != nil {
			t.Fatal(err)
		}
		ev, err := c.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(ev.Payload) != "via-interest" {
			t.Fatalf("payload = %q", ev.Payload)
		}
	})
}

func TestRoutedModeSavesTraffic(t *testing.T) {
	exact(t, func(t *testing.T) {
		// With no subscribers anywhere, a published event must not cross any
		// link in RouteSubscriptions mode — the whole point versus flooding.
		e := laneEnv(t, 41)
		brokers := routedChain(t, e, 4)

		_, _, framesBefore := e.net.Counters()
		if err := brokers[0].Publish("nobody/listens", []byte("waste?")); err != nil {
			t.Fatal(err)
		}
		e.net.Clock().Sleep(300 * time.Millisecond)
		_, _, framesAfter := e.net.Counters()
		if framesAfter != framesBefore {
			t.Fatalf("%d frames sent for an event nobody wants", framesAfter-framesBefore)
		}
	})
}

func TestRoutedPartialPath(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Subscriber at broker 1 of a 4-chain: a publish at broker 0 crosses
		// exactly one link; brokers 2 and 3 never see it.
		e := laneEnv(t, 42)
		brokers := routedChain(t, e, 4)

		node, _ := e.node(simnet.SiteUMN, "sub")
		c, _ := Connect(node, brokers[1].StreamAddr(), "sub")
		defer c.Close()
		_ = c.Subscribe("partial/topic")
		awaitInterest(t, brokers[0], "partial/topic", true)

		_, _, framesBefore := e.net.Counters()
		if err := brokers[0].Publish("partial/topic", []byte("one-hop")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		e.net.Clock().Sleep(300 * time.Millisecond)
		_, _, framesAfter := e.net.Counters()
		// One link frame (b0 -> b1) plus one client frame (b1 -> sub).
		if got := framesAfter - framesBefore; got != 2 {
			t.Fatalf("frames = %d, want 2 (link + client delivery)", got)
		}
	})
}

func TestRoutedUnsubscribeWithdrawsInterest(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 43)
		brokers := routedChain(t, e, 3)

		node, _ := e.node(simnet.SiteNCSA, "sub")
		c, _ := Connect(node, brokers[2].StreamAddr(), "sub")
		defer c.Close()
		_ = c.Subscribe("w/x")
		awaitInterest(t, brokers[0], "w/x", true)
		_ = c.Unsubscribe("w/x")
		awaitInterest(t, brokers[0], "w/x", false)

		_, _, framesBefore := e.net.Counters()
		_ = brokers[0].Publish("w/x", []byte("stale"))
		e.net.Clock().Sleep(300 * time.Millisecond)
		_, _, framesAfter := e.net.Counters()
		if framesAfter != framesBefore {
			t.Fatalf("%d frames sent after interest withdrawn", framesAfter-framesBefore)
		}
	})
}

func TestRoutedClientDisconnectWithdrawsInterest(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 44)
		brokers := routedChain(t, e, 3)

		node, _ := e.node(simnet.SiteNCSA, "sub")
		c, _ := Connect(node, brokers[2].StreamAddr(), "sub")
		_ = c.Subscribe("gone/client")
		awaitInterest(t, brokers[0], "gone/client", true)
		c.Close()
		awaitInterest(t, brokers[0], "gone/client", false)

		_, _, framesBefore := e.net.Counters()
		_ = brokers[0].Publish("gone/client", []byte("stale"))
		e.net.Clock().Sleep(300 * time.Millisecond)
		_, _, framesAfter := e.net.Counters()
		if framesAfter != framesBefore {
			t.Fatalf("%d frames sent after subscriber disconnected", framesAfter-framesBefore)
		}
	})
}

func TestRoutedWildcardInterest(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 45)
		brokers := routedChain(t, e, 3)

		node, _ := e.node(simnet.SiteNCSA, "sub")
		c, _ := Connect(node, brokers[2].StreamAddr(), "sub")
		defer c.Close()
		_ = c.Subscribe("wild/**")
		awaitInterest(t, brokers[0], "wild/a/b/c", true)

		if err := brokers[0].Publish("wild/a/b/c", []byte("deep")); err != nil {
			t.Fatal(err)
		}
		ev, err := c.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Topic != "wild/a/b/c" {
			t.Fatalf("topic = %q", ev.Topic)
		}
	})
}

func TestRoutedTwoSubscribersSharedPattern(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Two clients at the far end share a pattern; one unsubscribing must
		// not withdraw the link interest while the other remains.
		e := laneEnv(t, 46)
		brokers := routedChain(t, e, 2)

		node, _ := e.node(simnet.SiteUMN, "clients")
		c1, _ := Connect(node, brokers[1].StreamAddr(), "c1")
		defer c1.Close()
		c2, _ := Connect(node, brokers[1].StreamAddr(), "c2")
		defer c2.Close()
		_ = c1.Subscribe("shared/p")
		_ = c2.Subscribe("shared/p")
		e.net.Clock().Sleep(300 * time.Millisecond)
		_ = c1.Unsubscribe("shared/p")
		e.net.Clock().Sleep(300 * time.Millisecond)
		awaitInterest(t, brokers[0], "shared/p", true)

		if err := brokers[0].Publish("shared/p", []byte("still-flowing")); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Next(5 * time.Second); err != nil {
			t.Fatalf("remaining subscriber starved: %v", err)
		}
	})
}

func TestRoutedDiscoveryStillFloods(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Discovery requests must reach every broker regardless of routing
		// mode — they are control traffic, not content.
		e := laneEnv(t, 47)
		brokers := routedChain(t, e, 3)

		node, _ := e.node(simnet.SiteBloomington, "probe")
		pc, err := node.ListenPacket(0)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		resp := sendDiscoveryRequestTo(t, e, brokers[0], pc)
		if resp < 3 {
			t.Fatalf("only %d brokers responded in routed mode, want 3", resp)
		}
	})
}

// sendDiscoveryRequestTo injects a request at b and counts distinct
// responders within a window.
func sendDiscoveryRequestTo(t *testing.T, e *env, b *Broker, pc transport.PacketConn) int {
	t.Helper()
	req := newTestRequest(pc.LocalAddr())
	if err := pc.Send(b.UDPAddr(), req); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	deadline := e.net.Clock().Now().Add(3 * time.Second)
	for {
		remaining := deadline.Sub(e.net.Clock().Now())
		if remaining <= 0 {
			break
		}
		payload, _, err := pc.RecvTimeout(remaining)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				break
			}
			t.Fatal(err)
		}
		if from := responderOf(payload); from != "" {
			seen[from] = true
		}
	}
	return len(seen)
}

// newTestRequest builds an encoded discovery-request event frame.
func newTestRequest(responseAddr string) []byte {
	req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", ResponseAddr: responseAddr}
	ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
	return event.Encode(ev)
}

// responderOf extracts the responding broker's logical address from an
// encoded discovery-response frame ("" for anything else).
func responderOf(frame []byte) string {
	ev, err := event.Decode(frame)
	if err != nil || ev.Type != event.TypeDiscoveryResponse {
		return ""
	}
	resp, err := core.DecodeDiscoveryResponse(ev.Payload)
	if err != nil {
		return ""
	}
	return resp.Broker.LogicalAddress
}
