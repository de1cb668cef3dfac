package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/simnet"
	"narada/internal/transport"
)

// TestConcurrentPubSubStress hammers a three-broker chain with concurrent
// subscribe/unsubscribe churn and publishes from every broker at once. It is
// the -race proof for the publish path: allocation-free matching on trie
// snapshots, the lock-free router, per-connection egress writers and the
// sharded event dedup all run against each other here. The test passes when
// everything stays data-race free, nothing deadlocks, and a stable
// subscriber at the far end of the chain keeps receiving events.
func TestConcurrentPubSubStress(t *testing.T) {
	e := newEnv(t, 7)
	b1 := e.broker(simnet.SiteIndianapolis, "st1", Config{Routing: RouteSubscriptions})
	b2 := e.broker(simnet.SiteIndianapolis, "st2", Config{Routing: RouteSubscriptions})
	b3 := e.broker(simnet.SiteIndianapolis, "st3", Config{Routing: RouteSubscriptions})
	if err := b2.LinkTo(b1.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b3.LinkTo(b2.StreamAddr()); err != nil {
		t.Fatal(err)
	}

	// A stable subscriber at the end of the chain: its deliveries prove the
	// fabric keeps routing while the churners below rewrite the tables.
	node, _ := e.node(simnet.SiteIndianapolis, "stable")
	stable, err := Connect(node, b3.StreamAddr(), "stable")
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	if err := stable.Subscribe("stress/**"); err != nil {
		t.Fatal(err)
	}
	// Wait until the interest has actually propagated down the chain to b1
	// (a fixed sleep flakes when the race detector slows the control path).
	interestDeadline := time.Now().Add(10 * time.Second)
	for matchIDs(b1.subs, "stress/probe") == nil {
		if time.Now().After(interestDeadline) {
			t.Fatal("stable subscriber's interest never reached b1")
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup

	// Churners: one client per broker flipping exact and wildcard patterns.
	for i, br := range []*Broker{b1, b2, b3} {
		node, _ := e.node(simnet.SiteIndianapolis, fmt.Sprintf("churn%d", i))
		c, err := Connect(node, br.StreamAddr(), fmt.Sprintf("churn%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				pattern := fmt.Sprintf("stress/t%d/c%d", n%7, i)
				if n%3 == 0 {
					pattern = fmt.Sprintf("stress/*/c%d", i)
				}
				if err := c.Subscribe(pattern); err != nil {
					return
				}
				if err := c.Unsubscribe(pattern); err != nil {
					return
				}
			}
		}(i, c)
	}

	// Publishers: every broker injects events concurrently with the churn.
	payload := make([]byte, 128)
	for i, br := range []*Broker{b1, b2, b3} {
		wg.Add(1)
		go func(i int, br *Broker) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				topic := fmt.Sprintf("stress/t%d/c%d", n%7, i)
				if err := br.Publish(topic, payload); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(i, br)
	}

	// Drain the stable subscriber while the storm runs. Publishing is
	// fire-and-forget (publisher -> egress queue -> simnet -> client pump),
	// so the publishers finish well before their events finish arriving. A
	// single post-publish timeout therefore proves nothing; the drain only
	// stops once deliveries have quiesced: publishers done, something
	// received, and several consecutive empty 50 ms timeouts. A deadline
	// backstops the no-delivery failure case.
	received := 0
	var pubsDone atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(20 * time.Second)
		idle := 0
		for time.Now().Before(deadline) {
			_, err := stable.Next(50 * time.Millisecond)
			if err == nil {
				received++
				idle = 0
				continue
			}
			if !errors.Is(err, transport.ErrTimeout) {
				return
			}
			if pubsDone.Load() {
				if idle++; idle >= 5 && received > 0 {
					return
				}
			}
		}
	}()

	wg.Wait()
	pubsDone.Store(true)
	<-done
	if received == 0 {
		t.Fatal("stable subscriber received nothing during the stress run")
	}
	t.Logf("stable subscriber received %d events, egress drops: b1=%d b2=%d b3=%d",
		received, b1.EgressDropped(), b2.EgressDropped(), b3.EgressDropped())
}
