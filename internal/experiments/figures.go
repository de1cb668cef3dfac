package experiments

import (
	"fmt"
	"strings"
	"time"

	"narada/internal/bdn"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/stats"
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

// measure is one paper measurement: a discovery by a client that has just
// started. A Discoverer keeps its endpoint and its BDN session between
// discoveries, and the simulator charges a dial three one-way delays, so
// every figure and ablation loop measures through here and lets both go after
// the run; only abl-rediscover measures the warm case.
func measure(d *core.Discoverer) (*core.Result, error) {
	res, err := d.Discover()
	d.Close()
	return res, err
}

// figTestbed deploys the paper's 5 brokers in the named topology. For the
// linear topology only the first broker registers with the BDN (Figure 10);
// otherwise all register. The injection policy is O(N) for unconnected and
// closest+farthest for connected topologies (paper §4).
func figTestbed(topo string, opts Options) (*testbed.Testbed, error) {
	specs := testbed.PaperBrokers()
	policy := bdn.InjectAll
	switch topo {
	case topology.Linear:
		for i := range specs {
			specs[i].Register = i == 0
		}
		policy = bdn.InjectClosestFarthest
	case topology.Star:
		policy = bdn.InjectClosestFarthest
	}
	return testbed.New(testbed.Options{
		Scale:            opts.Scale,
		Seed:             opts.Seed,
		Topology:         topo,
		Brokers:          specs,
		InjectPolicy:     policy,
		InjectOverhead:   figInjectOverhead,
		BrokerProcessing: figBrokerProcessing,
	})
}

// BreakdownResult holds the per-phase shares for one topology (Figures 2, 9
// and 11).
type BreakdownResult struct {
	Topology string
	Mean     core.Breakdown // summed over runs; Percent() gives the figure
	Runs     int
	Failed   int
}

// RunBreakdown measures the percentage of time spent in each discovery
// sub-activity for a topology, averaged over opts.Runs discoveries issued
// from Bloomington (where the paper ran its client).
func RunBreakdown(topo string, opts Options) (*BreakdownResult, error) {
	opts.fillDefaults()
	tb, err := figTestbed(topo, opts)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", figDiscoveryConfig())

	out := &BreakdownResult{Topology: topo}
	for i := 0; i < opts.Runs; i++ {
		res, err := measure(d)
		if err != nil {
			out.Failed++
			continue
		}
		out.Mean.Add(&res.Timing)
		out.Runs++
	}
	if out.Runs == 0 {
		return nil, fmt.Errorf("experiments: every discovery failed on %s", topo)
	}
	return out, nil
}

func (r *BreakdownResult) report(id, paperRef string) *Report {
	rows := make([][]string, 0, 8)
	for _, p := range core.Phases() {
		rows = append(rows, []string{
			p.String(),
			fmt.Sprintf("%.2f", r.Mean.Percent(p)),
			fmt.Sprintf("%.1f", ms(r.Mean.Get(p))/float64(r.Runs)),
		})
	}
	body := table([]string{"Sub-activity", "% of total", "mean ms/run"}, rows)
	body += fmt.Sprintf("\nruns=%d failed=%d topology=%s\n", r.Runs, r.Failed, r.Topology)
	return &Report{ID: id, Title: "Discovery sub-activity breakdown (" + r.Topology + ")",
		PaperRef: paperRef, Body: body}
}

// SiteTimingResult holds the total-discovery-time statistics for one client
// site (Figures 3-7).
type SiteTimingResult struct {
	Site     string
	Summary  stats.Summary
	Selected map[string]int // selected broker -> count
	Failed   int
}

// RunSiteTiming measures total discovery time from one client site on the
// unconnected topology, applying the paper's 120-run/keep-100 sampling.
func RunSiteTiming(site string, opts Options) (*SiteTimingResult, error) {
	opts.fillDefaults()
	tb, err := figTestbed(topology.Unconnected, opts)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	return siteTiming(tb.NewDiscoverer(site, "client-"+site, figDiscoveryConfig()), site, opts)
}

// siteTiming is RunSiteTiming's measurement loop over a deployed testbed.
func siteTiming(d *core.Discoverer, site string, opts Options) (*SiteTimingResult, error) {
	totals := make([]float64, 0, opts.Runs)
	selected := make(map[string]int)
	failed := 0
	for i := 0; i < opts.Runs; i++ {
		res, err := measure(d)
		if err != nil {
			failed++
			continue
		}
		totals = append(totals, ms(res.Timing.Total()))
		selected[res.Selected.LogicalAddress]++
	}
	summary, err := paperSummary(totals, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: site %s: %w", site, err)
	}
	return &SiteTimingResult{Site: site, Summary: summary, Selected: selected, Failed: failed}, nil
}

func (r *SiteTimingResult) report(id string) *Report {
	body := metricTable("ms", r.Summary)
	var sel []string
	for name, n := range r.Selected {
		sel = append(sel, fmt.Sprintf("%s×%d", name, n))
	}
	body += fmt.Sprintf("\nselected brokers: %s  (failed runs: %d)\n",
		strings.Join(sel, " "), r.Failed)
	return &Report{
		ID:    id,
		Title: "Total discovery time, client at " + r.Site + " (unconnected topology)",
		PaperRef: "mean dominated by the wait for initial responses; " +
			"per-site variation tracks WAN RTTs",
		Body: body,
	}
}

// MulticastResult holds the multicast-only discovery statistics (Figure 12).
type MulticastResult struct {
	Summary      stats.Summary
	ReachedLocal int // runs that found only realm-local brokers (expected all)
	Runs         int
	Failed       int
}

// RunMulticast measures discovery with no BDN at all: the request is
// multicast and — since multicast does not cross realms, reproducing
// "multicast was disabled for network traffic outside the lab" — only the
// Indiana broker is discoverable from the Bloomington client.
func RunMulticast(opts Options) (*MulticastResult, error) {
	opts.fillDefaults()
	tb, err := testbed.New(testbed.Options{
		Scale:            opts.Scale,
		Seed:             opts.Seed,
		Topology:         topology.Unconnected,
		NoBDN:            true,
		Multicast:        true,
		BrokerProcessing: figBrokerProcessing,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	cfg := figDiscoveryConfig()
	cfg.MaxResponses = 1 // only the lab broker can answer
	cfg.CollectWindow = 1 * time.Second
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", cfg)

	totals := make([]float64, 0, opts.Runs)
	out := &MulticastResult{}
	for i := 0; i < opts.Runs; i++ {
		res, err := measure(d)
		if err != nil {
			out.Failed++
			continue
		}
		totals = append(totals, ms(res.Timing.Total()))
		out.Runs++
		local := true
		for _, c := range res.Responses {
			if c.Response.Broker.Realm != simnet.SiteIndianapolis &&
				c.Response.Broker.Realm != simnet.SiteBloomington {
				local = false
			}
		}
		if local {
			out.ReachedLocal++
		}
	}
	summary, err := paperSummary(totals, opts)
	if err != nil {
		return nil, err
	}
	out.Summary = summary
	return out, nil
}

func (r *MulticastResult) report() *Report {
	body := metricTable("ms", r.Summary)
	body += fmt.Sprintf("\nruns=%d realm-local-only=%d failed=%d\n",
		r.Runs, r.ReachedLocal, r.Failed)
	return &Report{
		ID:    "fig12",
		Title: "Broker discovery times using ONLY multicast (no BDN)",
		PaperRef: "multicast requests could only reach brokers inside the lab " +
			"realm; discovery is much faster but finds only local brokers",
		Body: body,
	}
}

// Table1Report renders the testbed machine summary (Table 1) together with
// the simulator's RTT matrix standing in for the physical WAN.
func Table1Report(opts Options) *Report {
	opts.fillDefaults()
	rows := make([][]string, 0, 8)
	for _, m := range simnet.Table1Machines() {
		rows = append(rows, []string{m.Hostname, m.Location, m.Spec, m.JVM})
	}
	body := table([]string{"Machine", "Location", "Specification", "JVM"}, rows)

	net := simnet.NewPaperWAN(simnet.Config{Scale: opts.Scale, Seed: opts.Seed})
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
		ID:       "table1",
		Title:    "Summary of machines used in the testing process",
		PaperRef: "five WAN-separated machines (Indiana, UMN, NCSA, FSU, Cardiff)",
		Body:     body,
	}
}
