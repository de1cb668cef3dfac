package experiments

import (
	"fmt"
	"io"
	"sort"

	"narada/internal/simnet"
	"narada/internal/topology"
)

// Runner executes one experiment and returns its report.
type Runner func(opts Options) (*Report, error)

// Registry maps experiment ids (table/figure numbers and ablations) to
// runners. The ids match DESIGN.md's experiment index.
var Registry = map[string]Runner{
	"table1": func(opts Options) (*Report, error) { return Table1Report(opts), nil },
	"fig2": func(opts Options) (*Report, error) {
		r, err := RunBreakdown(topology.Unconnected, opts)
		if err != nil {
			return nil, err
		}
		return r.report("fig2", "about 83% of the time is spent waiting for the "+
			"initial responses; BDN O(N) distribution is inefficient"), nil
	},
	"fig3": siteRunner("fig3", simnet.SiteFSU),
	"fig4": siteRunner("fig4", simnet.SiteCardiff),
	"fig5": siteRunner("fig5", simnet.SiteUMN),
	"fig6": siteRunner("fig6", simnet.SiteNCSA),
	"fig7": siteRunner("fig7", simnet.SiteBloomington),
	"fig9": func(opts Options) (*Report, error) {
		r, err := RunBreakdown(topology.Star, opts)
		if err != nil {
			return nil, err
		}
		return r.report("fig9", "time waiting for the initial set of responses "+
			"decreases significantly versus the unconnected topology"), nil
	},
	"fig11": func(opts Options) (*Report, error) {
		r, err := RunBreakdown(topology.Linear, opts)
		if err != nil {
			return nil, err
		}
		return r.report("fig11", "wait share better than unconnected but still "+
			"poor compared to the star: the request needs finite time to reach "+
			"the last broker in the chain"), nil
	},
	"fig12": func(opts Options) (*Report, error) {
		r, err := RunMulticast(opts)
		if err != nil {
			return nil, err
		}
		return r.report(), nil
	},
	"fig13": func(opts Options) (*Report, error) {
		r, err := RunCertValidation(opts)
		if err != nil {
			return nil, err
		}
		return r.report("fig13", "Time required in validating a X.509 Certificate",
			"costs are acceptable in most systems requiring the feature"), nil
	},
	"fig14": func(opts Options) (*Report, error) {
		r, err := RunSignEncrypt(opts)
		if err != nil {
			return nil, err
		}
		return r.report("fig14", "Time to digitally sign and encrypt and later "+
			"extract the BrokerDiscoveryRequest",
			"costs are acceptable in most systems requiring the feature"), nil
	},
	"abl-timeout":  RunTimeoutSweep,
	"abl-maxresp":  RunMaxResponsesSweep,
	"abl-target":   RunTargetSetSweep,
	"abl-weights":  RunLoadWeights,
	"abl-loss":     RunLossSweep,
	"abl-inject":   RunInjectionComparison,
	"abl-scale":    RunBrokerScale,
	"abl-pings":    RunPingCountSweep,
	"abl-failover": RunBDNFailover,
	"abl-routing":  RunRoutingComparison,

	"abl-rediscover": RunRediscovery,
}

func siteRunner(id, site string) Runner {
	return func(opts Options) (*Report, error) {
		r, err := RunSiteTiming(site, opts)
		if err != nil {
			return nil, err
		}
		return r.report(id), nil
	}
}

// IDs returns the registered experiment ids: figures first (paper order),
// then ablations, both lexically sorted within their group.
func IDs() []string {
	var figs, abls []string
	for id := range Registry {
		if len(id) > 3 && id[:4] == "abl-" {
			abls = append(abls, id)
		} else {
			figs = append(figs, id)
		}
	}
	sort.Strings(figs)
	sort.Strings(abls)
	return append(figs, abls...)
}

// Run executes one experiment by id and writes its report to w.
func Run(id string, opts Options, w io.Writer) error {
	runner, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	report, err := runner(opts)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	_, err = report.WriteTo(w)
	return err
}
