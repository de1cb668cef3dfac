// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (section 9), plus the ablation studies from DESIGN.md. Each
// benchmark executes the corresponding experiment end-to-end on the
// simulated WAN and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. Absolute times are model time on the
// simulator (or host-CPU time for the crypto figures); the comparison target
// is the paper's shape, recorded in EXPERIMENTS.md. BenchmarkDiscoverLoopback
// is the exception: wall-clock time on real loopback sockets.
package narada

import (
	"fmt"
	"io"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/experiments"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/topology"
	"narada/internal/transport"
)

// benchOpts keeps per-iteration work modest: the paper's full 120-run
// sampling is for cmd/nbexp; benchmarks use a smaller sample per iteration
// and vary the seed across iterations.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Runs: 10, Keep: 8, Scale: 200, Seed: int64(i + 1)}
}

func BenchmarkTable1Sites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1Report(benchOpts(i))
		if _, err := r.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBreakdown(b *testing.B, topo string) {
	waitPct := 0.0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBreakdown(topo, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		waitPct += r.Mean.Percent(core.PhaseWaitResponses)
	}
	b.ReportMetric(waitPct/float64(b.N), "wait-%")
}

func BenchmarkFig2UnconnectedBreakdown(b *testing.B) { benchBreakdown(b, topology.Unconnected) }
func BenchmarkFig9StarBreakdown(b *testing.B)        { benchBreakdown(b, topology.Star) }
func BenchmarkFig11LinearBreakdown(b *testing.B)     { benchBreakdown(b, topology.Linear) }

func benchSiteTiming(b *testing.B, site string) {
	mean := 0.0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSiteTiming(site, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean += r.Summary.Mean
	}
	b.ReportMetric(mean/float64(b.N), "model-ms/discovery")
}

func BenchmarkFig3DiscoveryFSU(b *testing.B)         { benchSiteTiming(b, simnet.SiteFSU) }
func BenchmarkFig4DiscoveryCardiff(b *testing.B)     { benchSiteTiming(b, simnet.SiteCardiff) }
func BenchmarkFig5DiscoveryUMN(b *testing.B)         { benchSiteTiming(b, simnet.SiteUMN) }
func BenchmarkFig6DiscoveryNCSA(b *testing.B)        { benchSiteTiming(b, simnet.SiteNCSA) }
func BenchmarkFig7DiscoveryBloomington(b *testing.B) { benchSiteTiming(b, simnet.SiteBloomington) }

func BenchmarkFig12MulticastOnly(b *testing.B) {
	mean := 0.0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMulticast(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean += r.Summary.Mean
	}
	b.ReportMetric(mean/float64(b.N), "model-ms/discovery")
}

func BenchmarkFig13CertValidation(b *testing.B) {
	mean := 0.0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCertValidation(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean += r.Summary.Mean
	}
	b.ReportMetric(mean/float64(b.N), "ms/validation")
}

func BenchmarkFig14SignEncrypt(b *testing.B) {
	mean := 0.0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSignEncrypt(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		mean += r.Summary.Mean
	}
	b.ReportMetric(mean/float64(b.N), "ms/roundtrip")
}

func benchAblation(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, benchOpts(i), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTimeoutSweep(b *testing.B)  { benchAblation(b, "abl-timeout") }
func BenchmarkAblationMaxResponses(b *testing.B)  { benchAblation(b, "abl-maxresp") }
func BenchmarkAblationTargetSetSize(b *testing.B) { benchAblation(b, "abl-target") }
func BenchmarkAblationLoadWeights(b *testing.B)   { benchAblation(b, "abl-weights") }
func BenchmarkAblationPacketLoss(b *testing.B)    { benchAblation(b, "abl-loss") }
func BenchmarkAblationInjection(b *testing.B)     { benchAblation(b, "abl-inject") }
func BenchmarkAblationBrokerScale(b *testing.B)   { benchAblation(b, "abl-scale") }
func BenchmarkAblationPingCount(b *testing.B)     { benchAblation(b, "abl-pings") }
func BenchmarkAblationBDNFailover(b *testing.B)   { benchAblation(b, "abl-failover") }
func BenchmarkAblationRouting(b *testing.B)       { benchAblation(b, "abl-routing") }
func BenchmarkAblationRediscover(b *testing.B)    { benchAblation(b, "abl-rediscover") }

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
