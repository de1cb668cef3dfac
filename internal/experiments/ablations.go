package experiments

import (
	"fmt"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

const mib = 1024 * 1024

// ablationRuns is the per-point repetition count for parameter sweeps (the
// paper's 120 would make multi-point sweeps needlessly slow; means stabilise
// well before that). It is a variable so the test suite can shrink it.
var ablationRuns = 30

// brokerSpecs spreads n idle registered brokers round-robin over the broker
// sites, for the experiments that need more than the paper's five.
func brokerSpecs(n int) []testbed.BrokerSpec {
	sites := simnet.PaperSiteNames()[1:]
	specs := make([]testbed.BrokerSpec, n)
	for i := range specs {
		specs[i] = testbed.BrokerSpec{
			Site:     sites[i%len(sites)],
			Name:     fmt.Sprintf("b%02d-%s", i, sites[i%len(sites)]),
			Register: true,
			Usage:    metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib},
		}
	}
	return specs
}

// pingMean is the mean ping-phase time of the completed runs.
func pingMean(s samples) float64 { return mean(s.each(phaseMs(core.PhasePing))) }

func selectedNote(_ *testbed.Testbed, s samples) string {
	return "selected " + s.dominant()
}

// timeoutSweep explores the response-collection timeout trade-off the paper
// discusses after Figure 11: "A small timeout period would decrease the total
// time ... however we risk collecting only few broker responses. A large
// timeout value implies more time is spent waiting." Loss makes responses
// genuinely missable, and no MaxResponses cutoff is set so the window alone
// ends collection.
func timeoutSweep(opts Options) (*Report, error) {
	deploy := paperDeployment(topology.Star, opts)
	deploy.Loss = 0.15
	var points []point
	for _, w := range []time.Duration{
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second, 2 * time.Second, 4 * time.Second,
	} {
		points = append(points, point{label: w.String(), deploy: deploy, runs: ablationRuns,
			cfg: core.Config{CollectWindow: w, PingWindow: 500 * time.Millisecond}})
	}
	return sweep("Response-collection timeout sweep (star topology, 15% loss)",
		"small timeout -> few responses collected; large timeout -> "+
			"wasted waiting once all responders have answered",
		"window", points)
}

// maxResponsesSweep explores the paper's first-N-responses cutoff: "a client
// might be willing to risk more timeout period but specify that only the
// first N responses must be considered."
func maxResponsesSweep(opts Options) (*Report, error) {
	var points []point
	for _, n := range []int{1, 2, 3, 4, 5} {
		cfg := figDiscoveryConfig()
		cfg.MaxResponses = n
		points = append(points, point{label: fmt.Sprint(n), deploy: paperDeployment(topology.Unconnected, opts),
			cfg: cfg, runs: ablationRuns, note: selectedNote})
	}
	return sweep("First-N-responses cutoff sweep (unconnected topology)",
		"considering fewer responses ends the wait sooner but risks "+
			"missing the best broker",
		"max responses", points)
}

// targetSetSweep explores the target-set size T ("usually ... between 5 and
// 20"): larger sets ping more brokers (longer ping phase) but are more robust
// to a mis-ranked shortlist.
func targetSetSweep(opts Options) (*Report, error) {
	var points []point
	for _, size := range []int{1, 2, 3, 5} {
		cfg := figDiscoveryConfig()
		cfg.Selection.TargetSetSize = size
		points = append(points, point{label: fmt.Sprint(size), deploy: paperDeployment(topology.Star, opts),
			cfg: cfg, runs: ablationRuns, note: targetNote})
	}
	return sweep("Target-set size sweep (star topology)",
		"target set is limited to a very small number, between 5 and 20",
		"|T|", points)
}

func targetNote(_ *testbed.Testbed, s samples) string {
	if len(s.ok()) == 0 {
		return ""
	}
	return fmt.Sprintf("ping %.1fms, selected %s", pingMean(s), s.dominant())
}

// loadWeights demonstrates the paper's §8 advantage 3: with usage-metric
// weighting, a newly added idle broker is preferentially selected over a
// loaded broker at the same site; without weighting the loaded veteran keeps
// absorbing clients.
func loadWeights(opts Options) (*Report, error) {
	deploy := paperDeployment(topology.Unconnected, opts)
	// Off the figure tuning: three brokers behind a BDN that injects in a
	// millisecond, each at the testbed's default processing cost.
	deploy.InjectOverhead, deploy.BrokerProcessing = time.Millisecond, 0
	// The veteran sorts (and so is injected and responds) first: a
	// load-blind client keeps connecting to the well-known existing broker,
	// which is precisely the static behaviour the paper's weighting fixes.
	deploy.Brokers = []testbed.BrokerSpec{
		{Site: simnet.SiteIndianapolis, Name: "a-veteran", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 460 * mib, CPULoad: 0.85}},
		{Site: simnet.SiteIndianapolis, Name: "z-newcomer", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 32 * mib, CPULoad: 0.02}},
		{Site: simnet.SiteFSU, Name: "m-remote", Register: true,
			Usage: metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib, CPULoad: 0.1}},
	}
	cfg := core.Config{CollectWindow: 2 * time.Second, MaxResponses: 3}
	cfg.Selection.TargetSetSize = 1 // the weighting decides alone
	rows := make([][]string, 0, 2)
	for _, mode := range []struct {
		name    string
		weights metrics.Weights
	}{
		{"usage-weighted", metrics.DefaultWeights()},
		// Explicit non-zero weighting on a factor that ties across all three
		// brokers (each holds exactly its BDN link): every score is equal, so
		// the stable sort degrades to response arrival order — the load-blind
		// baseline.
		{"load-blind", metrics.Weights{NumLinks: 1e-12}},
	} {
		cfg.Selection.Weights = mode.weights
		s, _, err := point{deploy: deploy, cfg: cfg, runs: ablationRuns}.run()
		if err != nil {
			return nil, err
		}
		sel := s.selection()
		rows = append(rows, []string{mode.name, fmt.Sprint(sel["z-newcomer"]),
			fmt.Sprint(sel["a-veteran"]), fmt.Sprint(sel["m-remote"])})
	}
	return &Report{
		Title: "Usage-metric weighting on/off: newly added broker utilisation",
		PaperRef: "since responses include the usage metric, a newly added " +
			"broker within a cluster is preferentially utilized",
		Body: table([]string{"selection mode", "newcomer", "veteran", "remote"}, rows),
	}, nil
}

// lossSweep verifies the paper's §7 fault-tolerance claim under growing UDP
// loss: discovery keeps completing, degrading gracefully in the number of
// responses collected.
func lossSweep(opts Options) (*Report, error) {
	var points []point
	for _, loss := range []float64{0, 0.1, 0.25, 0.4, 0.6} {
		deploy := paperDeployment(topology.Star, opts)
		deploy.Loss = loss
		points = append(points, point{label: fmt.Sprintf("%.0f%%", loss*100), deploy: deploy, runs: ablationRuns,
			cfg: core.Config{CollectWindow: 800 * time.Millisecond, PingWindow: 400 * time.Millisecond}})
	}
	return sweep("Datagram loss sweep (star topology)",
		"the scheme sustains loss of discovery requests and "+
			"responses; lossy UDP naturally filters remote brokers",
		"loss", points)
}

// injectionComparison contrasts the BDN's O(N) fan-out with the paper's
// closest+farthest injection on a connected network: the smart policy pays
// fewer serial injection overheads while network dissemination still reaches
// every broker.
func injectionComparison(opts Options) (*Report, error) {
	const brokers = 10 // enough to make the O(N) serial-injection cost unmistakable
	cfg := figDiscoveryConfig()
	cfg.MaxResponses = brokers
	var points []point
	for _, policy := range []struct {
		label  string
		policy bdn.InjectionPolicy
	}{{"inject-all (O(N))", bdn.InjectAll}, {"closest+farthest", bdn.InjectClosestFarthest}} {
		deploy := paperDeployment(topology.Star, opts)
		deploy.Brokers, deploy.InjectPolicy = brokerSpecs(brokers), policy.policy
		var framesBefore uint64
		points = append(points, point{label: policy.label, deploy: deploy, cfg: cfg, runs: ablationRuns,
			arm: func(tb *testbed.Testbed) { _, _, framesBefore = tb.Net.Counters() },
			note: func(tb *testbed.Testbed, _ samples) string {
				_, _, frames := tb.Net.Counters()
				return fmt.Sprintf("%.0f stream frames/run", float64(frames-framesBefore)/float64(ablationRuns))
			}})
	}
	return sweep("BDN injection policy: O(N) fan-out vs closest+farthest (star)",
		"the request is issued simultaneously to the brokers that are "+
			"closest and farthest from the BDN; on a connected network the "+
			"flood hides the latency cost of O(N) injection, but not its "+
			"redundant traffic (on an unconnected network the latency cost is "+
			"the abl-scale result)",
		"policy", points)
}

// brokerScale grows the broker population and contrasts the unconnected O(N)
// BDN fan-out against star-network dissemination: the O(N) wait grows
// linearly with broker count while the star stays nearly flat — the paper's
// scalability argument.
func brokerScale(opts Options) (*Report, error) {
	var points []point
	for _, n := range []int{5, 10, 20} {
		for _, topo := range []string{topology.Unconnected, topology.Star} {
			deploy := paperDeployment(topo, opts)
			deploy.Brokers = brokerSpecs(n)
			cfg := figDiscoveryConfig()
			cfg.MaxResponses = n
			points = append(points, point{label: fmt.Sprintf("%d brokers / %s", n, topo),
				deploy: deploy, cfg: cfg, runs: 10})
		}
	}
	return sweep("Broker-count scaling: O(N) BDN fan-out vs network dissemination",
		"as the number of brokers increases ... waiting for more "+
			"brokers would badly affect the total time (addressed by network "+
			"dissemination, timeout and max-responses)",
		"population", points)
}

// pingCountSweep varies the pings-per-target used for RTT averaging ("this
// PING operation may be repeated multiple times to compute the average
// network Round Trip Time"): more pings stabilise selection at the cost of a
// longer measurement phase.
func pingCountSweep(opts Options) (*Report, error) {
	var points []point
	for _, k := range []int{1, 3, 5, 10} {
		cfg := figDiscoveryConfig()
		cfg.PingCount = k
		points = append(points, point{label: fmt.Sprint(k), deploy: paperDeployment(topology.Unconnected, opts),
			cfg: cfg, runs: ablationRuns, note: nearestNote})
	}
	return sweep("Pings-per-target sweep (unconnected topology)",
		"ping may be repeated multiple times to compute the average "+
			"RTT between the peer and the broker",
		"pings/target", points)
}

func nearestNote(_ *testbed.Testbed, s samples) string {
	if len(s.ok()) == 0 {
		return ""
	}
	return fmt.Sprintf("nearest %d/%d, ping-phase %.1fms",
		s.selection()["broker-indianapolis"], len(s.ok()), pingMean(s))
}

// bdnFailover measures the paper's §7 no-single-point-of-failure claim: with
// the primary BDN down, discovery falls through to the next BDN in the node's
// configuration file and still completes — paying only the failed dial/ack
// attempt.
func bdnFailover(opts Options) (*Report, error) {
	deploy := paperDeployment(topology.Star, opts)
	deploy.BDNCount = 2
	cfg := figDiscoveryConfig()
	cfg.AckTimeout = 300 * time.Millisecond
	cfg.MaxRetransmits = 1
	return sweep("BDN failover: discovery with the primary BDN down",
		"the approach needs only 1 functioning BDN to work; "+
			"no single point of failure",
		"scenario", []point{
			{label: "both BDNs up", deploy: deploy, cfg: cfg, runs: ablationRuns, note: servedByNote},
			{label: "primary BDN down", deploy: deploy, cfg: cfg, runs: ablationRuns, note: servedByNote,
				arm: func(tb *testbed.Testbed) { tb.BDNs[0].Close() }},
		})
}

func servedByNote(_ *testbed.Testbed, s samples) string {
	via := make(map[string]int)
	for _, r := range s.ok() {
		via[r.BDN]++
	}
	return "served by " + countLine(via)
}

// rediscovery measures the paper's §7 case — "after prolonged disconnects" a
// node discovers again — on a requester that kept its endpoint and its BDN
// session against one that starts from nothing, per client site of Figures
// 3-7. What the warm requester saves is the dial: three one-way delays to the
// BDN in the simulator's handshake model, all of it in the request-issue
// phase.
func rediscovery(opts Options) (*Report, error) {
	rows := make([][]string, 0, 5)
	for _, site := range []string{simnet.SiteFSU, simnet.SiteCardiff, simnet.SiteUMN,
		simnet.SiteNCSA, simnet.SiteBloomington} {
		var runs [2]samples // cold, warm
		var rtt time.Duration
		err := onDeployment(paperDeployment(topology.Unconnected, opts), func(tb *testbed.Testbed) error {
			d := tb.NewDiscoverer(site, "client-"+site, figDiscoveryConfig())
			for i := 0; i < 2*ablationRuns; i++ {
				// Alternate, so both see the same stretch of the run. Every pass
				// starts and ends closed; a warm one first discovers once, unmeasured.
				k := i % 2 // 0 cold, 1 warm
				if k == 1 {
					if _, err := d.Discover(); err != nil {
						d.Close()
						runs[k] = append(runs[k], sample{err: err})
						continue
					}
				}
				runs[k] = append(runs[k], measure(d))
			}
			rtt, _ = tb.Net.RTT(site, simnet.SiteBloomington)
			return nil
		})
		if err != nil {
			return nil, err
		}
		cold, warm := runs[0], runs[1]
		if len(cold.ok()) == 0 || len(warm.ok()) == 0 {
			return nil, fmt.Errorf("experiments: every rediscovery failed from %s", site)
		}
		issue := phaseMs(core.PhaseRequestIssue)
		rows = append(rows, []string{
			site,
			fmt.Sprintf("%.1f", mean(cold.each(totalMs))),
			fmt.Sprintf("%.1f", mean(warm.each(totalMs))),
			fmt.Sprintf("%.1f", mean(cold.each(issue))),
			fmt.Sprintf("%.1f", mean(warm.each(issue))),
			fmt.Sprintf("%.1f", mean(cold.each(issue))-mean(warm.each(issue))),
			fmt.Sprintf("%.1f", 1.5*ms(rtt)),
			fmt.Sprintf("%d", cold.failed()+warm.failed()),
		})
	}
	return &Report{
		Title: "Rediscovery: cold vs warm requester per client site (unconnected topology)",
		PaperRef: "a node that was disconnected discovers again from what it " +
			"kept; the requester's resources stay constant (UDP responses, no " +
			"per-broker state), so keeping them costs nothing and saves the dial",
		Body: table([]string{"client site", "cold total ms", "warm total ms", "cold issue ms",
			"warm issue ms", "issue saved ms", "dial (1.5 RTT to BDN) ms", "failures"}, rows),
	}, nil
}

// routingComparison contrasts the two dissemination modes of the broker
// network: flooding (every publish crosses every link) versus
// subscription-interest routing ("routing the right content from the
// producer to the right consumers"). One subscriber sits one hop from the
// publisher on a five-broker chain; the routed mode should touch exactly
// that one link per publish, the flooding mode the whole chain.
func routingComparison(opts Options) (*Report, error) {
	const publishes = 50
	rows := make([][]string, 0, 2)
	for _, mode := range []struct {
		label string
		mode  broker.RoutingMode
	}{{"flooding", broker.RouteFlood}, {"interest-routed", broker.RouteSubscriptions}} {
		deploy := paperDeployment(topology.Linear, opts)
		deploy.Routing = mode.mode
		err := onDeployment(deploy, func(tb *testbed.Testbed) error {
			// Subscriber at the second broker in the chain.
			node := tb.ClientNode(tb.Brokers[1].Info().Realm, "sub")
			c, err := broker.Connect(node, tb.Brokers[1].StreamAddr(), "sub")
			if err != nil {
				return err
			}
			defer c.Close()
			if err := c.Subscribe("routed/bench"); err != nil {
				return err
			}
			tb.Net.Clock().Sleep(300 * time.Millisecond)

			_, _, framesBefore := tb.Net.Counters()
			received := 0
			for i := 0; i < publishes; i++ {
				if err := tb.Brokers[0].Publish("routed/bench", []byte("payload")); err != nil {
					return err
				}
				if _, err := c.Next(10 * time.Second); err == nil {
					received++
				}
			}
			tb.Net.Clock().Sleep(300 * time.Millisecond)
			_, _, framesAfter := tb.Net.Counters()
			rows = append(rows, []string{
				mode.label,
				fmt.Sprintf("%.1f", float64(framesAfter-framesBefore)/float64(publishes)),
				fmt.Sprintf("%d/%d", received, publishes),
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return &Report{
		Title: "Dissemination mode: flooding vs subscription-interest routing",
		PaperRef: "the MoM routes the right content from the producer to the " +
			"right consumers (NaradaBrokering's efficient routing vs naive " +
			"flooding)",
		Body: table([]string{"mode", "frames/publish", "delivered"}, rows),
	}, nil
}
