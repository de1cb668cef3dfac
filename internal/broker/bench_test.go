package broker

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// benchEnv builds a same-site simulated network whose LAN hop takes no time
// (a 1 ns round trip is 0 each way), so the broker's own processing is what
// is timed: a hop of a few µs would time the runtime's timer instead, whose
// shortest sleep is tens of µs.
func benchEnv(b *testing.B) (*simnet.Network, func(host string) (*transport.SimNode, *ntptime.Service)) {
	b.Helper()
	net := simnet.NewPaperWAN(simnet.Config{LocalRTT: time.Nanosecond, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	mk := func(host string) (*transport.SimNode, *ntptime.Service) {
		node := transport.NewSimNode(net, simnet.SiteIndianapolis, host, 0)
		ntp := ntptime.NewService(node.Clock(), 0, rng)
		ntp.InitImmediately()
		return node, ntp
	}
	return net, mk
}

func benchBroker(b *testing.B, mk func(string) (*transport.SimNode, *ntptime.Service), name string, cfg Config) *Broker {
	b.Helper()
	node, ntp := mk(name)
	cfg.LogicalAddress = name
	cfg.Sampler = metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 30})
	br, err := New(node, ntp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := br.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(br.Close)
	return br
}

// benchStall is how long (wall clock) one benchmark iteration may wait for its
// delivery before the benchmark is failed.
const benchStall = 10 * time.Second

// stallGuard bounds the per-iteration waits of a delivery benchmark without a
// timeout on each: a timed wait on the network clock costs a goroutine and a
// timer (ntptime.EpochClock.After), which the benchmark would then time.
// Iterations block untimed and push one wall-clock timer back; if an
// iteration stalls the timer closes the endpoint, the wait returns an error
// and the benchmark fails.
func stallGuard(b *testing.B, closeEndpoint func()) *time.Timer {
	guard := time.AfterFunc(benchStall, closeEndpoint)
	b.Cleanup(func() { guard.Stop() })
	return guard
}

// BenchmarkLocalDelivery measures one-broker publish -> subscriber delivery.
func BenchmarkLocalDelivery(b *testing.B) {
	_, mk := benchEnv(b)
	br := benchBroker(b, mk, "bench", Config{})
	node, _ := mk("sub")
	c, err := Connect(node, br.StreamAddr(), "sub")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("bench/topic"); err != nil {
		b.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	payload := make([]byte, 256)
	guard := stallGuard(b, c.Close)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guard.Reset(benchStall)
		if err := br.Publish("bench/topic", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Next(0); err != nil {
			b.Fatalf("delivery stalled: %v", err)
		}
	}
}

// BenchmarkChainDelivery measures publish -> delivery across a 3-broker
// chain (two link hops).
func BenchmarkChainDelivery(b *testing.B) {
	_, mk := benchEnv(b)
	b1 := benchBroker(b, mk, "c1", Config{})
	b2 := benchBroker(b, mk, "c2", Config{})
	b3 := benchBroker(b, mk, "c3", Config{})
	if err := b2.LinkTo(b1.StreamAddr()); err != nil {
		b.Fatal(err)
	}
	if err := b3.LinkTo(b2.StreamAddr()); err != nil {
		b.Fatal(err)
	}
	node, _ := mk("sub")
	c, err := Connect(node, b3.StreamAddr(), "sub")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("bench/chain"); err != nil {
		b.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	payload := make([]byte, 256)
	guard := stallGuard(b, c.Close)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guard.Reset(benchStall)
		if err := b1.Publish("bench/chain", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Next(0); err != nil {
			b.Fatalf("delivery stalled: %v", err)
		}
	}
}

// BenchmarkDiscoveryResponse measures the broker's full discovery-request
// handling path: decode, dedup, policy, response construction, UDP send.
func BenchmarkDiscoveryResponse(b *testing.B) {
	_, mk := benchEnv(b)
	br := benchBroker(b, mk, "disc", Config{})
	node, _ := mk("probe")
	pc, err := node.ListenPacket(0)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()

	guard := stallGuard(b, func() { pc.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guard.Reset(benchStall)
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe",
			ResponseAddr: pc.LocalAddr()}
		ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
		if err := pc.Send(br.UDPAddr(), event.Encode(ev)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := pc.Recv(); err != nil {
			b.Fatalf("response stalled: %v", err)
		}
	}
}

// BenchmarkSubscriptionChurn measures subscribe/unsubscribe round trips
// including interest propagation over one link.
func BenchmarkSubscriptionChurn(b *testing.B) {
	_, mk := benchEnv(b)
	b1 := benchBroker(b, mk, "s1", Config{Routing: RouteSubscriptions})
	b2 := benchBroker(b, mk, "s2", Config{Routing: RouteSubscriptions})
	if err := b2.LinkTo(b1.StreamAddr()); err != nil {
		b.Fatal(err)
	}
	node, _ := mk("churner")
	c, err := Connect(node, b2.StreamAddr(), "churner")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// Identify the session before the broker's 10 s hello window expires.
	if err := c.Subscribe("churn/warmup"); err != nil {
		b.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern := fmt.Sprintf("churn/t%d", i%100)
		if err := c.Subscribe(pattern); err != nil {
			b.Fatal(err)
		}
		if err := c.Unsubscribe(pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// pingFeed is a datagram endpoint whose far side is the benchmark: Recv hands
// out the same ping left times and then closes, Send counts the pongs.
type pingFeed struct {
	transport.PacketConn
	ping  []byte
	left  int
	pongs int
}

func (c *pingFeed) Recv() ([]byte, string, error) {
	if c.left == 0 {
		return nil, "", transport.ErrClosed
	}
	c.left--
	return c.ping, "requester:1", nil
}

func (c *pingFeed) Send(string, []byte) error { c.pongs++; return nil }

// BenchmarkAnswerPing is the broker's UDP rung of the discovery ladder: one
// ping datagram, carrying a discovery's trace context as the refinement
// phase's pings do, through udpLoop to the pong handed to the endpoint. The
// ping is parsed in place; what is allocated is the pong (gated in
// scripts/bench_gate.sh so a header map per datagram cannot come back).
func BenchmarkAnswerPing(b *testing.B) {
	_, mk := benchEnv(b)
	node, ntp := mk("bench")
	br, err := New(node, ntp, Config{LogicalAddress: "bench",
		Sampler: metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 30})})
	if err != nil {
		b.Fatal(err)
	}
	ping := event.New(event.TypePing, "", core.EncodePing(&core.Ping{ID: uuid.New(), SentAt: time.Unix(1, 0), Seq: 2}))
	ping.Source = "bench-req"
	ping.SetTrace(uuid.New().String(), "bench-req", 0)
	feed := &pingFeed{ping: event.Encode(ping), left: b.N}
	br.udp = feed
	br.wg.Add(1)
	b.ReportAllocs()
	b.ResetTimer()
	br.udpLoop()
	b.StopTimer()
	if feed.pongs != b.N {
		b.Fatalf("%d pings answered with %d pongs", b.N, feed.pongs)
	}
}
