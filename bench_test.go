// Root benchmarks: the discovery ladder's end-to-end rung, in wall-clock time
// on real loopback sockets. The paper's figures are model time; `make figures`
// regenerates them (cmd/nbexp).
package narada

import (
	"fmt"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/transport"
)

// BenchmarkDiscoverLoopback is the discovery ladder's end-to-end rung: one
// complete Discover() per iteration in wall-clock time over real loopback
// TCP/UDP — the quantity of the paper's Figs 3–7 minus the WAN — on a warm
// requester: the endpoint and the BDN session of the first discovery serve
// all the others, as in the repository benchmark's discover_loopback.
func BenchmarkDiscoverLoopback(b *testing.B) { benchDiscoverLoopback(b, false) }

// BenchmarkDiscoverLoopbackCold is the same discovery by a requester that has
// just started: Close() after every iteration, so each one pays the listen
// and the dial. First-join cost keeps a number of its own.
func BenchmarkDiscoverLoopbackCold(b *testing.B) { benchDiscoverLoopback(b, true) }

// benchDiscoverLoopback runs the repository benchmark's discover_loopback
// fleet in one process: a BDN injecting at two brokers, six brokers registered
// with it and linked in a star, each sampling its usage from the runtime as
// cmd/broker does.
func benchDiscoverLoopback(b *testing.B, cold bool) {
	const brokers = 6
	node := transport.NewRealNode("127.0.0.1", nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()

	d, err := bdn.New(node, ntp, bdn.Config{Name: "bench-bdn", Policy: bdn.InjectClosestFarthest})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	hub := ""
	for i := 0; i < brokers; i++ {
		br, err := broker.New(node, ntp, broker.Config{LogicalAddress: fmt.Sprintf("broker-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := br.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(br.Close)
		if err := br.RegisterWithBDN(d.Addr()); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			hub = br.StreamAddr()
		} else if err := br.LinkTo(hub); err != nil {
			b.Fatal(err)
		}
	}

	cfg := core.Config{
		NodeName:      "bench-req",
		BDNAddrs:      []string{d.Addr()},
		MaxResponses:  brokers,
		PingCount:     3,
		CollectWindow: 2 * time.Second,
	}
	requester := core.NewDiscoverer(node, ntp, cfg)
	b.Cleanup(requester.Close)
	// Ready when a probe with a short collection window hears every broker:
	// registrations and links settle asynchronously, and an incomplete fleet
	// then costs 50 ms per attempt instead of the full window.
	cfg.NodeName, cfg.CollectWindow = "bench-probe", 50*time.Millisecond
	probe := core.NewDiscoverer(node, ntp, cfg)
	b.Cleanup(probe.Close)
	for deadline := time.Now().Add(20 * time.Second); ; {
		res, err := probe.Discover()
		if err == nil && len(res.Responses) == brokers {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("not every broker answered a probe discovery within 20s (last: %v)", err)
		}
	}

	responses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := requester.Discover()
		if err != nil {
			b.Fatal(err)
		}
		responses += len(res.Responses)
		if cold {
			requester.Close()
		}
	}
	b.ReportMetric(float64(responses)/float64(b.N), "responses/op")
}
