package experiments

import (
	"fmt"
	"io"

	"narada/internal/simnet"
	"narada/internal/topology"
)

// Kind says which half of the evaluation an experiment belongs to.
type Kind int

const (
	Figure   Kind = iota // a table or figure of the paper's §9
	Ablation             // a design choice the paper calls out, swept
)

type runner func(opts Options) (*Report, error)

// Experiment is one entry of the evaluation.
type Experiment struct {
	ID   string
	Kind Kind
	run  runner
}

// Registry is the evaluation in paper order: Table 1, Figures 2-12, then the
// ablations, every one measured in model time. Figures 13 and 14 time the
// host's CPU: they are internal/security's BenchmarkValidateCert and
// BenchmarkSealOpen. Every other list of experiments — nbexp -list,
// DESIGN.md §2 — is read from or checked against this one.
var Registry = []Experiment{
	{"table1", Figure, table1},
	{"fig2", Figure, breakdown(topology.Unconnected, "about 83% of the time is spent waiting for the "+
		"initial responses; BDN O(N) distribution is inefficient")},
	{"fig3", Figure, siteTiming(simnet.SiteFSU)},
	{"fig4", Figure, siteTiming(simnet.SiteCardiff)},
	{"fig5", Figure, siteTiming(simnet.SiteUMN)},
	{"fig6", Figure, siteTiming(simnet.SiteNCSA)},
	{"fig7", Figure, siteTiming(simnet.SiteBloomington)},
	{"fig9", Figure, breakdown(topology.Star, "time waiting for the initial set of responses "+
		"decreases significantly versus the unconnected topology")},
	{"fig11", Figure, breakdown(topology.Linear, "wait share better than unconnected but still "+
		"poor compared to the star: the request needs finite time to reach "+
		"the last broker in the chain")},
	{"fig12", Figure, multicast},
	{"abl-timeout", Ablation, timeoutSweep},
	{"abl-maxresp", Ablation, maxResponsesSweep},
	{"abl-target", Ablation, targetSetSweep},
	{"abl-weights", Ablation, loadWeights},
	{"abl-loss", Ablation, lossSweep},
	{"abl-inject", Ablation, injectionComparison},
	{"abl-scale", Ablation, brokerScale},
	{"abl-pings", Ablation, pingCountSweep},
	{"abl-failover", Ablation, bdnFailover},
	{"abl-routing", Ablation, routingComparison},
	{"abl-rediscover", Ablation, rediscovery},
}

// IDs returns the experiment ids in registry order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}

// Run executes the experiment and returns its report.
func (e Experiment) Run(opts Options) (*Report, error) {
	opts.fillDefaults()
	report, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	report.ID = e.ID
	return report, nil
}

// Run executes one experiment by id and writes its report to w.
func Run(id string, opts Options, w io.Writer) error {
	for _, e := range Registry {
		if e.ID != id {
			continue
		}
		report, err := e.Run(opts)
		if err != nil {
			return err
		}
		_, err = report.WriteTo(w)
		return err
	}
	return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}
