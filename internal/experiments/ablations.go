package experiments

import (
	"fmt"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/simnet"
	"narada/internal/stats"
	"narada/internal/testbed"
	"narada/internal/topology"
)

const mib = 1024 * 1024

// ablationRuns is the per-point repetition count for parameter sweeps (the
// paper's 120 would make multi-point sweeps needlessly slow; means stabilise
// well before that). It is a variable so the test suite can shrink it.
var ablationRuns = 30

// sweepPoint is one row of a parameter sweep.
type sweepPoint struct {
	label     string
	totalMs   stats.Summary
	waitMs    stats.Summary
	responses stats.Summary
	failures  int
	extra     string
}

func sweepTable(points []sweepPoint, paramName string) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			p.label,
			fmt.Sprintf("%.1f", p.totalMs.Mean),
			fmt.Sprintf("%.1f", p.waitMs.Mean),
			fmt.Sprintf("%.2f", p.responses.Mean),
			fmt.Sprintf("%d", p.failures),
			p.extra,
		})
	}
	return table([]string{paramName, "total ms", "wait ms", "responses", "failures", "notes"}, rows)
}

// runPoint executes n discoveries and summarises totals/waits/responses.
func runPoint(d *core.Discoverer, n int) (sweepPoint, []*core.Result) {
	var totals, waits, resps []float64
	var results []*core.Result
	failures := 0
	for i := 0; i < n; i++ {
		res, err := measure(d)
		if err != nil {
			failures++
			continue
		}
		totals = append(totals, ms(res.Timing.Total()))
		waits = append(waits, ms(res.Timing.Get(core.PhaseWaitResponses)))
		resps = append(resps, float64(len(res.Responses)))
		results = append(results, res)
	}
	p := sweepPoint{failures: failures}
	if len(totals) > 0 {
		p.totalMs = stats.MustSummarize(totals)
		p.waitMs = stats.MustSummarize(waits)
		p.responses = stats.MustSummarize(resps)
	}
	return p, results
}

// RunTimeoutSweep explores the response-collection timeout trade-off the
// paper discusses after Figure 11: "A small timeout period would decrease
// the total time ... however we risk collecting only few broker responses.
// A large timeout value implies more time is spent waiting."
// Loss makes responses genuinely missable, and no MaxResponses cutoff is set
// so the window alone ends collection.
func RunTimeoutSweep(opts Options) (*Report, error) {
	opts.fillDefaults()
	windows := []time.Duration{
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second, 2 * time.Second, 4 * time.Second,
	}
	points := make([]sweepPoint, 0, len(windows))
	for _, w := range windows {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Star,
			InjectPolicy:   bdn.InjectClosestFarthest,
			InjectOverhead: figInjectOverhead, BrokerProcessing: figBrokerProcessing,
			Loss: 0.15,
		})
		if err != nil {
			return nil, err
		}
		cfg := core.Config{CollectWindow: w, PingWindow: 500 * time.Millisecond}
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, _ := runPoint(d, ablationRuns)
		p.label = w.String()
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-timeout",
		Title: "Response-collection timeout sweep (star topology, 15% loss)",
		PaperRef: "small timeout -> few responses collected; large timeout -> " +
			"wasted waiting once all responders have answered",
		Body: sweepTable(points, "window"),
	}, nil
}

// RunMaxResponsesSweep explores the paper's first-N-responses cutoff: "a
// client might be willing to risk more timeout period but specify that only
// the first N responses must be considered."
func RunMaxResponsesSweep(opts Options) (*Report, error) {
	opts.fillDefaults()
	points := make([]sweepPoint, 0, 6)
	for _, n := range []int{1, 2, 3, 4, 5} {
		tb, err := figTestbed(topology.Unconnected, opts)
		if err != nil {
			return nil, err
		}
		cfg := figDiscoveryConfig()
		cfg.MaxResponses = n
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, results := runPoint(d, ablationRuns)
		p.label = fmt.Sprintf("%d", n)
		p.extra = "selected " + dominantSelection(results)
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-maxresp",
		Title: "First-N-responses cutoff sweep (unconnected topology)",
		PaperRef: "considering fewer responses ends the wait sooner but risks " +
			"missing the best broker",
		Body: sweepTable(points, "max responses"),
	}, nil
}

func dominantSelection(results []*core.Result) string {
	counts := make(map[string]int)
	for _, r := range results {
		counts[r.Selected.LogicalAddress]++
	}
	best, n := "", 0
	for name, c := range counts {
		if c > n {
			best, n = name, c
		}
	}
	if best == "" {
		return "-"
	}
	return fmt.Sprintf("%s %d/%d", best, n, len(results))
}

// RunTargetSetSweep explores the target-set size T ("usually ... between 5
// and 20"): larger sets ping more brokers (longer ping phase) but are more
// robust to a mis-ranked shortlist.
func RunTargetSetSweep(opts Options) (*Report, error) {
	opts.fillDefaults()
	points := make([]sweepPoint, 0, 4)
	for _, size := range []int{1, 2, 3, 5} {
		tb, err := figTestbed(topology.Star, opts)
		if err != nil {
			return nil, err
		}
		cfg := figDiscoveryConfig()
		cfg.Selection.TargetSetSize = size
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, results := runPoint(d, ablationRuns)
		p.label = fmt.Sprintf("%d", size)
		var pingMs []float64
		for _, r := range results {
			pingMs = append(pingMs, ms(r.Timing.Get(core.PhasePing)))
		}
		if len(pingMs) > 0 {
			p.extra = fmt.Sprintf("ping %.1fms, selected %s",
				stats.MustSummarize(pingMs).Mean, dominantSelection(results))
		}
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:       "abl-target",
		Title:    "Target-set size sweep (star topology)",
		PaperRef: "target set is limited to a very small number, between 5 and 20",
		Body:     sweepTable(points, "|T|"),
	}, nil
}

// RunLoadWeights demonstrates the paper's §8 advantage 3: with usage-metric
// weighting, a newly added idle broker is preferentially selected over a
// loaded broker at the same site; without weighting the loaded veteran keeps
// absorbing clients.
func RunLoadWeights(opts Options) (*Report, error) {
	opts.fillDefaults()
	// The veteran sorts (and so is injected and responds) first: a
	// load-blind client keeps connecting to the well-known existing broker,
	// which is precisely the static behaviour the paper's weighting fixes.
	specs := []testbed.BrokerSpec{
		{Site: simnet.SiteIndianapolis, Name: "a-veteran", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 460 * mib, CPULoad: 0.85}},
		{Site: simnet.SiteIndianapolis, Name: "z-newcomer", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 32 * mib, CPULoad: 0.02}},
		{Site: simnet.SiteFSU, Name: "m-remote", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib, CPULoad: 0.1}},
	}
	rows := make([][]string, 0, 2)
	for _, weighted := range []bool{true, false} {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Unconnected,
			Brokers: specs, InjectOverhead: time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			CollectWindow: 2 * time.Second,
			MaxResponses:  3,
		}
		cfg.Selection.TargetSetSize = 1 // the weighting decides alone
		if weighted {
			cfg.Selection.Weights = metrics.DefaultWeights()
		} else {
			// Explicit non-zero weighting on a factor that ties across all
			// three brokers (each holds exactly its BDN link): every score
			// is equal, so the stable sort degrades to response arrival
			// order — the load-blind baseline.
			cfg.Selection.Weights = metrics.Weights{NumLinks: 1e-12}
		}
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		counts := make(map[string]int)
		for i := 0; i < ablationRuns; i++ {
			res, err := measure(d)
			if err != nil {
				continue
			}
			counts[res.Selected.LogicalAddress]++
		}
		mode := "usage-weighted"
		if !weighted {
			mode = "load-blind"
		}
		rows = append(rows, []string{
			mode,
			fmt.Sprintf("%d", counts["z-newcomer"]),
			fmt.Sprintf("%d", counts["a-veteran"]),
			fmt.Sprintf("%d", counts["m-remote"]),
		})
		tb.Close()
	}
	return &Report{
		ID:    "abl-weights",
		Title: "Usage-metric weighting on/off: newly added broker utilisation",
		PaperRef: "since responses include the usage metric, a newly added " +
			"broker within a cluster is preferentially utilized",
		Body: table([]string{"selection mode", "newcomer", "veteran", "remote"}, rows),
	}, nil
}

// RunLossSweep verifies the paper's §7 fault-tolerance claim under growing
// UDP loss: discovery keeps completing, degrading gracefully in the number
// of responses collected.
func RunLossSweep(opts Options) (*Report, error) {
	opts.fillDefaults()
	points := make([]sweepPoint, 0, 5)
	for _, loss := range []float64{0, 0.1, 0.25, 0.4, 0.6} {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Star,
			InjectPolicy:   bdn.InjectClosestFarthest,
			InjectOverhead: figInjectOverhead, BrokerProcessing: figBrokerProcessing,
			Loss: loss,
		})
		if err != nil {
			return nil, err
		}
		cfg := core.Config{CollectWindow: 800 * time.Millisecond, PingWindow: 400 * time.Millisecond}
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, _ := runPoint(d, ablationRuns)
		p.label = fmt.Sprintf("%.0f%%", loss*100)
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-loss",
		Title: "Datagram loss sweep (star topology)",
		PaperRef: "the scheme sustains loss of discovery requests and " +
			"responses; lossy UDP naturally filters remote brokers",
		Body: sweepTable(points, "loss"),
	}, nil
}

// RunInjectionComparison contrasts the BDN's O(N) fan-out with the paper's
// closest+farthest injection on a connected network: the smart policy pays
// fewer serial injection overheads while network dissemination still reaches
// every broker.
func RunInjectionComparison(opts Options) (*Report, error) {
	opts.fillDefaults()
	// Ten brokers make the O(N) serial-injection cost unmistakable.
	sites := simnet.PaperSiteNames()[1:]
	specs := make([]testbed.BrokerSpec, 10)
	for i := range specs {
		specs[i] = testbed.BrokerSpec{
			Site:     sites[i%len(sites)],
			Name:     fmt.Sprintf("b%02d-%s", i, sites[i%len(sites)]),
			Register: true,
			Usage:    metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib},
		}
	}
	points := make([]sweepPoint, 0, 2)
	for _, policy := range []bdn.InjectionPolicy{bdn.InjectAll, bdn.InjectClosestFarthest} {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Star,
			Brokers:        specs,
			InjectPolicy:   policy,
			InjectOverhead: figInjectOverhead, BrokerProcessing: figBrokerProcessing,
		})
		if err != nil {
			return nil, err
		}
		cfg := figDiscoveryConfig()
		cfg.MaxResponses = len(specs)
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		framesBefore, _, _ := countFrames(tb)
		p, _ := runPoint(d, ablationRuns)
		framesAfter, _, _ := countFrames(tb)
		if policy == bdn.InjectAll {
			p.label = "inject-all (O(N))"
		} else {
			p.label = "closest+farthest"
		}
		p.extra = fmt.Sprintf("%.0f stream frames/run",
			float64(framesAfter-framesBefore)/float64(ablationRuns))
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-inject",
		Title: "BDN injection policy: O(N) fan-out vs closest+farthest (star)",
		PaperRef: "the request is issued simultaneously to the brokers that are " +
			"closest and farthest from the BDN; on a connected network the " +
			"flood hides the latency cost of O(N) injection, but not its " +
			"redundant traffic (on an unconnected network the latency cost is " +
			"the abl-scale result)",
		Body: sweepTable(points, "policy"),
	}, nil
}

// countFrames reads the simulator's traffic counters.
func countFrames(tb *testbed.Testbed) (frames, datagramsSent, datagramsDropped uint64) {
	sent, dropped, f := tb.Net.Counters()
	return f, sent, dropped
}

// RunBrokerScale grows the broker population and contrasts the unconnected
// O(N) BDN fan-out against star-network dissemination: the O(N) wait grows
// linearly with broker count while the star stays nearly flat — the paper's
// scalability argument.
func RunBrokerScale(opts Options) (*Report, error) {
	opts.fillDefaults()
	sites := simnet.PaperSiteNames()[1:]
	points := make([]sweepPoint, 0, 8)
	for _, n := range []int{5, 10, 20} {
		for _, topo := range []string{topology.Unconnected, topology.Star} {
			specs := make([]testbed.BrokerSpec, n)
			for i := range specs {
				specs[i] = testbed.BrokerSpec{
					Site:     sites[i%len(sites)],
					Name:     fmt.Sprintf("b%02d-%s", i, sites[i%len(sites)]),
					Register: true,
					Usage:    metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib},
				}
			}
			policy := bdn.InjectAll
			if topo == topology.Star {
				policy = bdn.InjectClosestFarthest
			}
			tb, err := testbed.New(testbed.Options{
				Scale: opts.Scale, Seed: opts.Seed, Topology: topo,
				Brokers:        specs,
				InjectPolicy:   policy,
				InjectOverhead: figInjectOverhead, BrokerProcessing: figBrokerProcessing,
			})
			if err != nil {
				return nil, err
			}
			cfg := figDiscoveryConfig()
			cfg.MaxResponses = n
			d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
			p, _ := runPoint(d, 10)
			p.label = fmt.Sprintf("%d brokers / %s", n, topo)
			points = append(points, p)
			tb.Close()
		}
	}
	return &Report{
		ID:    "abl-scale",
		Title: "Broker-count scaling: O(N) BDN fan-out vs network dissemination",
		PaperRef: "as the number of brokers increases ... waiting for more " +
			"brokers would badly affect the total time (addressed by network " +
			"dissemination, timeout and max-responses)",
		Body: sweepTable(points, "population"),
	}, nil
}

// RunPingCountSweep varies the pings-per-target used for RTT averaging ("this
// PING operation may be repeated multiple times to compute the average
// network Round Trip Time"): more pings stabilise selection at the cost of a
// longer measurement phase.
func RunPingCountSweep(opts Options) (*Report, error) {
	opts.fillDefaults()
	points := make([]sweepPoint, 0, 4)
	for _, k := range []int{1, 3, 5, 10} {
		tb, err := figTestbed(topology.Unconnected, opts)
		if err != nil {
			return nil, err
		}
		cfg := figDiscoveryConfig()
		cfg.PingCount = k
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, results := runPoint(d, ablationRuns)
		p.label = fmt.Sprintf("%d", k)
		nearest := 0
		var pingMs []float64
		for _, r := range results {
			if r.Selected.LogicalAddress == "broker-indianapolis" {
				nearest++
			}
			pingMs = append(pingMs, ms(r.Timing.Get(core.PhasePing)))
		}
		if len(results) > 0 {
			p.extra = fmt.Sprintf("nearest %d/%d, ping-phase %.1fms",
				nearest, len(results), stats.MustSummarize(pingMs).Mean)
		}
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-pings",
		Title: "Pings-per-target sweep (unconnected topology)",
		PaperRef: "ping may be repeated multiple times to compute the average " +
			"RTT between the peer and the broker",
		Body: sweepTable(points, "pings/target"),
	}, nil
}

// RunBDNFailover measures the paper's §7 no-single-point-of-failure claim:
// with the primary BDN down, discovery falls through to the next BDN in the
// node's configuration file and still completes — paying only the failed
// dial/ack attempt.
func RunBDNFailover(opts Options) (*Report, error) {
	opts.fillDefaults()
	points := make([]sweepPoint, 0, 2)
	for _, killPrimary := range []bool{false, true} {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Star,
			BDNCount:       2,
			InjectPolicy:   bdn.InjectClosestFarthest,
			InjectOverhead: figInjectOverhead, BrokerProcessing: figBrokerProcessing,
		})
		if err != nil {
			return nil, err
		}
		if killPrimary {
			tb.BDNs[0].Close()
		}
		cfg := figDiscoveryConfig()
		cfg.AckTimeout = 300 * time.Millisecond
		cfg.MaxRetransmits = 1
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)
		p, results := runPoint(d, ablationRuns)
		if killPrimary {
			p.label = "primary BDN down"
		} else {
			p.label = "both BDNs up"
		}
		via := make(map[string]int)
		for _, r := range results {
			via[r.BDN]++
		}
		p.extra = fmt.Sprintf("served by %v", via)
		points = append(points, p)
		tb.Close()
	}
	return &Report{
		ID:    "abl-failover",
		Title: "BDN failover: discovery with the primary BDN down",
		PaperRef: "the approach needs only 1 functioning BDN to work; " +
			"no single point of failure",
		Body: sweepTable(points, "scenario"),
	}, nil
}

// RunRediscovery measures the paper's §7 case — "after prolonged disconnects"
// a node discovers again — on a requester that kept its endpoint and its BDN
// session against one that starts from nothing, per client site of Figures
// 3-7. What the warm requester saves is the dial: three one-way delays to the
// BDN in the simulator's handshake model, all of it in the request-issue
// phase.
func RunRediscovery(opts Options) (*Report, error) {
	opts.fillDefaults()
	rows := make([][]string, 0, 5)
	for _, site := range []string{simnet.SiteFSU, simnet.SiteCardiff, simnet.SiteUMN,
		simnet.SiteNCSA, simnet.SiteBloomington} {
		tb, err := figTestbed(topology.Unconnected, opts)
		if err != nil {
			return nil, err
		}
		d := tb.NewDiscoverer(site, "client-"+site, figDiscoveryConfig())
		var total, issue [2][]float64 // cold, warm
		failed := 0
		for i := 0; i < 2*ablationRuns; i++ {
			// Alternate, so both see the same stretch of the run. Every pass
			// starts and ends closed; a warm one first discovers once, unmeasured.
			k := i % 2 // 0 cold, 1 warm
			if k == 1 {
				if _, err := d.Discover(); err != nil {
					d.Close()
					failed++
					continue
				}
			}
			res, err := measure(d)
			if err != nil {
				failed++
				continue
			}
			total[k] = append(total[k], ms(res.Timing.Total()))
			issue[k] = append(issue[k], ms(res.Timing.Get(core.PhaseRequestIssue)))
		}
		rtt, _ := tb.Net.RTT(site, simnet.SiteBloomington)
		tb.Close()
		if len(total[0]) == 0 || len(total[1]) == 0 {
			return nil, fmt.Errorf("experiments: every rediscovery failed from %s", site)
		}
		mean := func(xs []float64) float64 { return stats.MustSummarize(xs).Mean }
		rows = append(rows, []string{
			site,
			fmt.Sprintf("%.1f", mean(total[0])),
			fmt.Sprintf("%.1f", mean(total[1])),
			fmt.Sprintf("%.1f", mean(issue[0])),
			fmt.Sprintf("%.1f", mean(issue[1])),
			fmt.Sprintf("%.1f", mean(issue[0])-mean(issue[1])),
			fmt.Sprintf("%.1f", 1.5*ms(rtt)),
			fmt.Sprintf("%d", failed),
		})
	}
	return &Report{
		ID:    "abl-rediscover",
		Title: "Rediscovery: cold vs warm requester per client site (unconnected topology)",
		PaperRef: "a node that was disconnected discovers again from what it " +
			"kept; the requester's resources stay constant (UDP responses, no " +
			"per-broker state), so keeping them costs nothing and saves the dial",
		Body: table([]string{"client site", "cold total ms", "warm total ms", "cold issue ms",
			"warm issue ms", "issue saved ms", "dial (1.5 RTT to BDN) ms", "failures"}, rows),
	}, nil
}

// RunRoutingComparison contrasts the two dissemination modes of the broker
// network: flooding (every publish crosses every link) versus
// subscription-interest routing ("routing the right content from the
// producer to the right consumers"). One subscriber sits one hop from the
// publisher on a five-broker chain; the routed mode should touch exactly
// that one link per publish, the flooding mode the whole chain.
func RunRoutingComparison(opts Options) (*Report, error) {
	opts.fillDefaults()
	const publishes = 50
	rows := make([][]string, 0, 2)
	for _, mode := range []broker.RoutingMode{broker.RouteFlood, broker.RouteSubscriptions} {
		tb, err := testbed.New(testbed.Options{
			Scale: opts.Scale, Seed: opts.Seed, Topology: topology.Linear,
			Routing:        mode,
			InjectOverhead: time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		// Subscriber at the second broker in the chain.
		node := tb.ClientNode(tb.Brokers[1].Info().Realm, "sub")
		c, err := broker.Connect(node, tb.Brokers[1].StreamAddr(), "sub")
		if err != nil {
			tb.Close()
			return nil, err
		}
		if err := c.Subscribe("routed/bench"); err != nil {
			tb.Close()
			return nil, err
		}
		tb.Net.Clock().Sleep(300 * time.Millisecond)

		_, _, framesBefore := tb.Net.Counters()
		received := 0
		for i := 0; i < publishes; i++ {
			if err := tb.Brokers[0].Publish("routed/bench", []byte("payload")); err != nil {
				tb.Close()
				return nil, err
			}
			if _, err := c.Next(10 * time.Second); err == nil {
				received++
			}
		}
		tb.Net.Clock().Sleep(300 * time.Millisecond)
		_, _, framesAfter := tb.Net.Counters()
		c.Close()

		label := "flooding"
		if mode == broker.RouteSubscriptions {
			label = "interest-routed"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.1f", float64(framesAfter-framesBefore)/float64(publishes)),
			fmt.Sprintf("%d/%d", received, publishes),
		})
		tb.Close()
	}
	return &Report{
		ID:    "abl-routing",
		Title: "Dissemination mode: flooding vs subscription-interest routing",
		PaperRef: "the MoM routes the right content from the producer to the " +
			"right consumers (NaradaBrokering's efficient routing vs naive " +
			"flooding)",
		Body: table([]string{"mode", "frames/publish", "delivered"}, rows),
	}, nil
}
