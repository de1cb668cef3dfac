package reliable

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// session spins up one broker on the simulated WAN plus publisher and
// subscriber clients.
type session struct {
	net *simnet.Network
	b   *broker.Broker
	pub *Publisher
	sub *Subscriber
}

// newSession starts a session and runs the test in parallel with the others:
// each waits on its own network's wall-clock delays and redeliveries.
func newSession(t *testing.T, seed int64) *session {
	t.Helper()
	t.Parallel()
	return startSession(t, seed)
}

// startSession starts a session; its cleanups close everything it opened.
func startSession(t *testing.T, seed int64) *session {
	t.Helper()
	net := simnet.NewPaperWAN(simnet.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))

	mkNode := func(host string) (*transport.SimNode, *ntptime.Service) {
		skew := net.RandomSkew(20 * time.Millisecond)
		node := transport.NewSimNode(net, simnet.SiteIndianapolis, host, skew)
		ntp := ntptime.NewService(node.Clock(), skew, rng)
		ntp.InitImmediately()
		return node, ntp
	}

	bNode, bNtp := mkNode("broker")
	b, err := broker.New(bNode, bNtp, broker.Config{
		LogicalAddress: "broker",
		Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 29}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	pubNode, _ := mkNode("pub")
	pubClient, err := broker.Connect(pubNode, b.StreamAddr(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pubClient.Close)
	pub, err := NewPublisher(pubNode, pubClient, PublisherConfig{
		Source:         "pub",
		RedeliverAfter: 50 * time.Millisecond,
		MaxAttempts:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Close)

	subNode, _ := mkNode("sub")
	subClient, err := broker.Connect(subNode, b.StreamAddr(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(subClient.Close)
	sub := NewSubscriber(subClient)
	t.Cleanup(sub.Close)

	return &session{net: net, b: b, pub: pub, sub: sub}
}

func TestReliableEndToEnd(t *testing.T) {
	s := newSession(t, 1)
	if err := s.sub.Subscribe("data/**"); err != nil {
		t.Fatal(err)
	}
	s.net.Clock().Sleep(100 * time.Millisecond)

	const n = 10
	for i := 0; i < n; i++ {
		if err := s.pub.Publish("data/stream", []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env, err := s.sub.Next(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if env.Seq != uint64(i)+1 {
			t.Fatalf("message %d has seq %d", i, env.Seq)
		}
		if string(env.Payload) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("message %d payload %q", i, env.Payload)
		}
	}
	// All events acknowledged eventually.
	deadline := time.Now().Add(5 * time.Second)
	for s.pub.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p := s.pub.Pending(); p != 0 {
		t.Fatalf("pending = %d after delivery", p)
	}
}

func TestRedeliveryAfterLateSubscribe(t *testing.T) {
	// Publish before the subscriber exists: the first delivery is lost
	// (nobody matched), and redelivery must hand it to the late subscriber.
	s := newSession(t, 2)
	if err := s.pub.Publish("late/topic", []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	s.net.Clock().Sleep(50 * time.Millisecond)

	if err := s.sub.Subscribe("late/topic"); err != nil {
		t.Fatal(err)
	}
	env, err := s.sub.Next(10 * time.Second)
	if err != nil {
		t.Fatalf("redelivery never arrived: %v", err)
	}
	if string(env.Payload) != "persistent" {
		t.Fatalf("payload = %q", env.Payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pub.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.pub.Pending() != 0 {
		t.Fatal("event still pending after redelivered ack")
	}
}

func TestSubscriberSeesNoDuplicatesUnderRedelivery(t *testing.T) {
	// Slow ack path: force at least one redelivery and verify exactly-once
	// release at the subscriber.
	s := newSession(t, 3)
	if err := s.sub.Subscribe("dup/check"); err != nil {
		t.Fatal(err)
	}
	s.net.Clock().Sleep(100 * time.Millisecond)

	const n = 5
	for i := 0; i < n; i++ {
		if err := s.pub.Publish("dup/check", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]int)
	deadline := time.Now().Add(time.Second) // 20 redelivery intervals
	for time.Now().Before(deadline) {
		env, err := s.sub.Next(50 * time.Millisecond)
		if err != nil {
			continue
		}
		seen[env.Seq]++
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), n)
	}
	for seq, count := range seen {
		if count != 1 {
			t.Fatalf("seq %d released %d times", seq, count)
		}
	}
}

func TestDeadLetterSurfacing(t *testing.T) {
	// No subscriber ever: the event exhausts its attempts and dead-letters.
	s := newSession(t, 4)
	if err := s.pub.Publish("void/topic", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// MaxAttempts=10 at 50ms redelivery → dead within ~0.55s.
	select {
	case env := <-s.pub.DeadLetters():
		if string(env.Payload) != "doomed" {
			t.Fatalf("dead letter payload %q", env.Payload)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("dead letter never surfaced")
	}
	if s.pub.Pending() != 0 {
		t.Fatal("dead-lettered event still pending")
	}
}
