package experiments

import (
	"fmt"
	"time"

	"narada/internal/bdn"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

// Tuning for the paper-shaped deployments: the BDN's per-injection overhead
// and each broker's per-request processing cost (2005-era Java serialisation
// and scheduling), which together produce the paper's topology ordering —
// the unconnected O(N) fan-out is slowest, the star's network dissemination
// fastest, the linear chain in between.
const (
	figInjectOverhead   = 60 * time.Millisecond
	figBrokerProcessing = 10 * time.Millisecond
)

// figDiscoveryConfig is the client configuration for the figure experiments:
// the paper's 4-second window, first-5-responses cutoff.
func figDiscoveryConfig() core.Config {
	return core.Config{
		CollectWindow: 4 * time.Second,
		MaxResponses:  5,
		PingWindow:    1 * time.Second,
	}
}

// paperDeployment is the one base every experiment's testbed derives from:
// the paper's five brokers in the named topology under the figure tuning. For
// the linear topology only the first broker registers with the BDN (Figure
// 10); otherwise all register. The injection policy is O(N) for unconnected
// and closest+farthest for connected topologies (paper §4).
func paperDeployment(topo string, opts Options) testbed.Options {
	o := testbed.Options{
		Seed:             opts.Seed,
		Topology:         topo,
		Brokers:          testbed.PaperBrokers(),
		InjectPolicy:     bdn.InjectAll,
		InjectOverhead:   figInjectOverhead,
		BrokerProcessing: figBrokerProcessing,
	}
	switch topo {
	case topology.Linear:
		for i := range o.Brokers {
			o.Brokers[i].Register = i == 0
		}
		o.InjectPolicy = bdn.InjectClosestFarthest
	case topology.Star:
		o.InjectPolicy = bdn.InjectClosestFarthest
	}
	return o
}

// breakdownSamples measures opts.Runs discoveries from Bloomington (where the
// paper ran its client) on a topology: Figures 2, 9 and 11.
func breakdownSamples(topo string, opts Options) (samples, error) {
	s, _, err := point{deploy: paperDeployment(topo, opts), cfg: figDiscoveryConfig(), runs: opts.Runs}.run()
	if err == nil && len(s.ok()) == 0 {
		err = fmt.Errorf("experiments: every discovery failed on %s", topo)
	}
	return s, err
}

// breakdownReport renders the percentage of time spent in each discovery
// sub-activity, averaged over the completed runs.
func breakdownReport(topo, paperRef string, s samples) *Report {
	sum, runs := s.breakdown(), len(s.ok())
	rows := make([][]string, 0, 8)
	for _, p := range core.Phases() {
		rows = append(rows, []string{
			p.String(),
			fmt.Sprintf("%.2f", sum.Percent(p)),
			fmt.Sprintf("%.1f", ms(sum.Get(p))/float64(runs)),
		})
	}
	body := table([]string{"Sub-activity", "% of total", "mean ms/run"}, rows)
	body += fmt.Sprintf("\nruns=%d failed=%d topology=%s\n", runs, s.failed(), topo)
	return &Report{Title: "Discovery sub-activity breakdown (" + topo + ")", PaperRef: paperRef, Body: body}
}

func breakdown(topo, paperRef string) runner {
	return func(opts Options) (*Report, error) {
		s, err := breakdownSamples(topo, opts)
		if err != nil {
			return nil, err
		}
		return breakdownReport(topo, paperRef, s), nil
	}
}

// siteSamples measures total discovery time from one client site on the
// unconnected topology: Figures 3-7.
func siteSamples(site string, opts Options) (samples, error) {
	s, _, err := point{deploy: paperDeployment(topology.Unconnected, opts), site: site,
		cfg: figDiscoveryConfig(), runs: opts.Runs}.run()
	return s, err
}

// siteTimingReport applies the paper's 120-run/keep-100 sampling to a site's
// totals.
func siteTimingReport(site string, s samples, opts Options) (*Report, error) {
	sum, err := s.summary(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: site %s: %w", site, err)
	}
	body := metricTable("ms", sum)
	body += fmt.Sprintf("\nselected brokers: %s  (failed runs: %d)\n", s.selectionLine(), s.failed())
	return &Report{
		Title: "Total discovery time, client at " + site + " (unconnected topology)",
		PaperRef: "mean dominated by the wait for initial responses; " +
			"per-site variation tracks WAN RTTs",
		Body: body,
	}, nil
}

func siteTiming(site string) runner {
	return func(opts Options) (*Report, error) {
		s, err := siteSamples(site, opts)
		if err != nil {
			return nil, err
		}
		return siteTimingReport(site, s, opts)
	}
}

// multicastSamples measures discovery with no BDN at all (Figure 12): the
// request is multicast and — since multicast does not cross realms,
// reproducing "multicast was disabled for network traffic outside the lab" —
// only the Indiana broker is discoverable from the Bloomington client.
func multicastSamples(opts Options) (samples, error) {
	o := paperDeployment(topology.Unconnected, opts)
	o.NoBDN, o.Multicast = true, true
	cfg := figDiscoveryConfig()
	cfg.MaxResponses = 1 // only the lab broker can answer
	cfg.CollectWindow = 1 * time.Second
	s, _, err := point{deploy: o, cfg: cfg, runs: opts.Runs}.run()
	return s, err
}

// realmLocal counts the runs that heard only realm-local brokers (expected:
// all of them).
func realmLocal(s samples) int {
	n := 0
	for _, r := range s.ok() {
		local := true
		for _, c := range r.Responses {
			if c.Response.Broker.Realm != simnet.SiteIndianapolis &&
				c.Response.Broker.Realm != simnet.SiteBloomington {
				local = false
			}
		}
		if local {
			n++
		}
	}
	return n
}

func multicastReport(s samples, opts Options) (*Report, error) {
	sum, err := s.summary(opts)
	if err != nil {
		return nil, err
	}
	body := metricTable("ms", sum)
	body += fmt.Sprintf("\nruns=%d realm-local-only=%d failed=%d\n", len(s.ok()), realmLocal(s), s.failed())
	return &Report{
		Title: "Broker discovery times using ONLY multicast (no BDN)",
		PaperRef: "multicast requests could only reach brokers inside the lab " +
			"realm; discovery is much faster but finds only local brokers",
		Body: body,
	}, nil
}

func multicast(opts Options) (*Report, error) {
	s, err := multicastSamples(opts)
	if err != nil {
		return nil, err
	}
	return multicastReport(s, opts)
}

// table1 renders the testbed machine summary (Table 1) together with the
// simulator's RTT matrix standing in for the physical WAN.
func table1(opts Options) (*Report, error) {
	rows := make([][]string, 0, 8)
	for _, m := range simnet.Table1Machines() {
		rows = append(rows, []string{m.Hostname, m.Location, m.Spec, m.JVM})
	}
	body := table([]string{"Machine", "Location", "Specification", "JVM"}, rows)

	net := simnet.NewPaperWAN(simnet.Config{Seed: opts.Seed})
	sites := simnet.PaperSiteNames()
	rttRows := make([][]string, 0, len(sites))
	for _, a := range sites {
		row := []string{a}
		for _, b := range sites {
			if a == b {
				row = append(row, "-")
				continue
			}
			rtt, _ := net.RTT(a, b)
			row = append(row, fmt.Sprintf("%.0f", ms(rtt)))
		}
		rttRows = append(rttRows, row)
	}
	body += "\nSimulated RTT matrix (ms):\n"
	body += table(append([]string{"site"}, sites...), rttRows)
	return &Report{
		Title:    "Summary of machines used in the testing process",
		PaperRef: "five WAN-separated machines (Indiana, UMN, NCSA, FSU, Cardiff)",
		Body:     body,
	}, nil
}
