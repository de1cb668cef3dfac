package experiments

import (
	"fmt"
	"sort"
	"strings"

	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/stats"
	"narada/internal/testbed"
)

// sample is one measured discovery: what Discover returned.
type sample struct {
	res *core.Result
	err error
}

// samples is what a run holds, in the order measured. Every number an
// experiment reports — totals, per-phase times, response counts, failures,
// who was selected — is a function of this slice and nothing else.
type samples []sample

// measure is one paper measurement: a discovery by a client that has just
// started. A Discoverer keeps its endpoint and its BDN session between
// discoveries, and the simulator charges a dial three one-way delays, so
// every figure and ablation measures through here and lets both go after
// the run; only abl-rediscover measures the warm case.
func measure(d *core.Discoverer) sample {
	res, err := d.Discover()
	d.Close()
	return sample{res, err}
}

// collect is the measurement loop: n cold discoveries, one after another.
func collect(d *core.Discoverer, n int) samples {
	out := make(samples, n)
	for i := range out {
		out[i] = measure(d)
	}
	return out
}

// ok returns the results of the discoveries that completed.
func (s samples) ok() []*core.Result {
	out := make([]*core.Result, 0, len(s))
	for _, x := range s {
		if x.err == nil {
			out = append(out, x.res)
		}
	}
	return out
}

// failed counts the discoveries that returned an error.
func (s samples) failed() int { return len(s) - len(s.ok()) }

// breakdown sums the per-phase times of the completed discoveries;
// Percent() of the sum is the share Figures 2, 9 and 11 plot.
func (s samples) breakdown() core.Breakdown {
	var sum core.Breakdown
	for _, r := range s.ok() {
		sum.Add(&r.Timing)
	}
	return sum
}

// each evaluates f on every completed discovery.
func (s samples) each(f func(*core.Result) float64) []float64 {
	ok := s.ok()
	out := make([]float64, len(ok))
	for i, r := range ok {
		out[i] = f(r)
	}
	return out
}

func totalMs(r *core.Result) float64   { return ms(r.Timing.Total()) }
func responses(r *core.Result) float64 { return float64(len(r.Responses)) }
func phaseMs(p core.Phase) func(*core.Result) float64 {
	return func(r *core.Result) float64 { return ms(r.Timing.Get(p)) }
}

// mean is the arithmetic mean, 0 for no samples (a point where every
// discovery failed still gets its row).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.MustSummarize(xs).Mean
}

// summary is the total discovery time in ms under the paper's sampling
// (trim outliers at 2 sigma, keep the first opts.Keep).
func (s samples) summary(opts Options) (stats.Summary, error) {
	return paperSummary(s.each(totalMs), opts)
}

// selection counts how often each broker was selected.
func (s samples) selection() map[string]int {
	sel := make(map[string]int)
	for _, r := range s.ok() {
		sel[r.Selected.LogicalAddress]++
	}
	return sel
}

// ranked lists a selection's brokers most-selected first and by name within a
// count: the one order a selection is printed in, so the same samples always
// print the same.
func ranked(sel map[string]int) []string {
	names := make([]string, 0, len(sel))
	for name := range sel {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if sel[names[i]] != sel[names[j]] {
			return sel[names[i]] > sel[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// selectionLine renders the selection as countLine does.
func (s samples) selectionLine() string { return countLine(s.selection()) }

// countLine renders counts as "name×n name×n ..." in ranked order.
func countLine(counts map[string]int) string {
	parts := ranked(counts)
	for i, name := range parts {
		parts[i] = fmt.Sprintf("%s×%d", name, counts[name])
	}
	return strings.Join(parts, " ")
}

// dominant renders the most-selected broker as "name n/runs".
func (s samples) dominant() string {
	sel := s.selection()
	if len(sel) == 0 {
		return "-"
	}
	top := ranked(sel)[0]
	return fmt.Sprintf("%s %d/%d", top, sel[top], len(s.ok()))
}

// point is one measured deployment: a testbed, a client on it, and how many
// discoveries to collect. A figure is one point; a sweep is a list of them.
type point struct {
	label  string
	deploy testbed.Options
	site   string // client site ("" = Bloomington, where the paper ran its client)
	cfg    core.Config
	runs   int
	// arm, when set, runs on the settled deployment before the first
	// discovery (kill a BDN, read a counter).
	arm func(*testbed.Testbed)
	// note, when set, fills the row's notes column while the deployment is
	// still up.
	note func(*testbed.Testbed, samples) string
}

// onDeployment deploys o, hands the settled testbed to f and closes it on
// every path. It holds the package's only testbed.New.
func onDeployment(o testbed.Options, f func(*testbed.Testbed) error) error {
	tb, err := testbed.New(o)
	if err != nil {
		return err
	}
	defer tb.Close()
	return f(tb)
}

// run deploys the point and collects its samples.
func (p point) run() (s samples, note string, err error) {
	if p.site == "" {
		p.site = simnet.SiteBloomington
	}
	err = onDeployment(p.deploy, func(tb *testbed.Testbed) error {
		if p.arm != nil {
			p.arm(tb)
		}
		s = collect(tb.NewDiscoverer(p.site, "client-"+p.site, p.cfg), p.runs)
		if p.note != nil {
			note = p.note(tb, s)
		}
		return nil
	})
	return s, note, err
}

// sweepRow tabulates one point's samples.
func sweepRow(label string, s samples, note string) []string {
	return []string{
		label,
		fmt.Sprintf("%.1f", mean(s.each(totalMs))),
		fmt.Sprintf("%.1f", mean(s.each(phaseMs(core.PhaseWaitResponses)))),
		fmt.Sprintf("%.2f", mean(s.each(responses))),
		fmt.Sprintf("%d", s.failed()),
		note,
	}
}

func sweepTable(param string, rows [][]string) string {
	return table([]string{param, "total ms", "wait ms", "responses", "failures", "notes"}, rows)
}

// sweep runs every point in order and tabulates one row each.
func sweep(title, paperRef, param string, points []point) (*Report, error) {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		s, note, err := p.run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, sweepRow(p.label, s, note))
	}
	return &Report{Title: title, PaperRef: paperRef, Body: sweepTable(param, rows)}, nil
}
