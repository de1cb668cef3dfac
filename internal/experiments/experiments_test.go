package experiments

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
	"narada/internal/transport"
)

// quickOpts keeps test runtime modest while leaving enough samples for the
// shape assertions to be stable. Under the race detector model time runs
// slower, trading runtime for timing deltas the instrumented scheduler
// cannot blur.
func quickOpts(seed int64) Options {
	scale := float64(200)
	if raceEnabled {
		scale = 25
	}
	return Options{Runs: 12, Keep: 10, Scale: scale, Seed: seed}
}

func TestRegistryComplete(t *testing.T) {
	// The independent list: every experiment, in paper order.
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9",
		"fig11", "fig12", "fig13", "fig14",
		"abl-timeout", "abl-maxresp", "abl-target", "abl-weights",
		"abl-loss", "abl-inject", "abl-scale", "abl-pings", "abl-failover",
		"abl-routing", "abl-rediscover",
	}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("registry lists\n  %v\nwant\n  %v", got, want)
	}
}

// TestDesignIndexMatchesRegistry reads the ID column of the two tables of
// DESIGN.md §2 and requires the registry's ids in the registry's order, so the
// document is checked against the list rather than copied from it.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 2. Experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no §2 Experiment index")
	}
	section, _, _ = strings.Cut(section, "\n## 3.")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			continue
		}
		if id := strings.TrimSpace(cells[1]); id != "ID" && strings.Trim(id, "-") != "" {
			got = append(got, id)
		}
	}
	if want := IDs(); !slices.Equal(got, want) {
		t.Errorf("DESIGN.md §2 lists\n  %v\nthe registry\n  %v", got, want)
	}
}

func TestIDsOrdering(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d, registry has %d", len(ids), len(Registry))
	}
	sawAblation := false
	for _, e := range Registry {
		if e.Kind == Ablation {
			sawAblation = true
		} else if sawAblation {
			t.Fatalf("figure %q listed after ablations", e.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", quickOpts(1), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Report(t *testing.T) {
	r, err := table1(quickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "complexity.ucs.indiana.edu") ||
		!strings.Contains(r.Body, "bouscat.cs.cf.ac.uk") {
		t.Fatalf("Table 1 machines missing:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "RTT matrix") {
		t.Fatal("RTT matrix missing")
	}
}

// TestBreakdownShape is the core reproduction assertion for Figures 2/9/11:
// the wait-for-initial-responses phase dominates everywhere, the unconnected
// topology spends the most absolute time waiting, the star the least, the
// linear chain in between.
func TestBreakdownShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology sweep")
	}
	results := map[string]samples{}
	for _, topo := range []string{topology.Unconnected, topology.Star, topology.Linear} {
		r, err := breakdownSamples(topo, quickOpts(3))
		if err != nil {
			t.Fatal(err)
		}
		results[topo] = r
		sum := r.breakdown()
		if pct := sum.Percent(core.PhaseWaitResponses); pct < 40 {
			t.Errorf("%s: wait share %.1f%%, expected the dominant phase", topo, pct)
		}
	}
	waitOf := func(topo string) float64 {
		r := results[topo]
		sum := r.breakdown()
		return float64(sum.Get(core.PhaseWaitResponses)) / float64(len(r.ok()))
	}
	un, star, lin := waitOf(topology.Unconnected), waitOf(topology.Star), waitOf(topology.Linear)
	// The robust paper claim: the unconnected O(N) fan-out waits far longer
	// than the star's network dissemination.
	if un <= star {
		t.Errorf("unconnected (%.0f) did not wait longer than star (%.0f)", un, star)
	}
	// The linear chain sits between the two. Its gaps to both neighbours are
	// tens of model-ms, which scheduler contention (e.g. running alongside
	// the benchmark suite on one CPU) can blur — so allow 15%% slack rather
	// than a strict ordering.
	if float64(lin) > float64(un)*1.15 || float64(lin) < float64(star)*0.85 {
		t.Errorf("linear (%.0f) outside [star %.0f, unconnected %.0f] envelope",
			lin, star, un)
	} else if !(un > lin && lin > star) {
		t.Logf("note: strict ordering blurred under load: unconnected=%.0f linear=%.0f star=%.0f",
			un, lin, star)
	}
}

// TestSiteTimingShape asserts Figures 3-7's qualitative content: every site
// completes discovery, selects its nearest broker, and the transatlantic
// client (Cardiff) is slower than the client co-located with the BDN.
func TestSiteTimingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-site sweep")
	}
	nearest := map[string]string{
		simnet.SiteBloomington: "broker-indianapolis",
		simnet.SiteFSU:         "broker-fsu",
		simnet.SiteCardiff:     "broker-cardiff",
	}
	means := map[string]float64{}
	for site, want := range nearest {
		opts := quickOpts(4)
		r, err := siteSamples(site, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.summary(opts)
		if err != nil {
			t.Fatal(err)
		}
		means[site] = sum.Mean
		if top := ranked(r.selection())[0]; top != want {
			t.Errorf("%s: selected %s most often, want %s (%s)", site, top, want, r.selectionLine())
		}
		if sum.Mean <= 0 {
			t.Errorf("%s: non-positive mean", site)
		}
	}
	if means[simnet.SiteCardiff] <= means[simnet.SiteBloomington] {
		t.Errorf("Cardiff (%.0f ms) should be slower than Bloomington (%.0f ms)",
			means[simnet.SiteCardiff], means[simnet.SiteBloomington])
	}
}

// TestMulticastShape asserts Figure 12: discovery works with no BDN, finds
// only realm-local brokers, and is much faster than the BDN path.
func TestMulticastShape(t *testing.T) {
	opts := quickOpts(5)
	mc, err := multicastSamples(opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs, local := len(mc.ok()), realmLocal(mc); local != runs {
		t.Errorf("%d/%d runs leaked outside the realm", runs-local, runs)
	}
	bdnPath, err := siteSamples(simnet.SiteBloomington, opts)
	if err != nil {
		t.Fatal(err)
	}
	mcSum, err := mc.summary(opts)
	if err != nil {
		t.Fatal(err)
	}
	bdnSum, err := bdnPath.summary(opts)
	if err != nil {
		t.Fatal(err)
	}
	if mcSum.Mean >= bdnSum.Mean {
		t.Errorf("multicast (%.0f ms) not faster than BDN path (%.0f ms)", mcSum.Mean, bdnSum.Mean)
	}
}

func TestSecurityExperiments(t *testing.T) {
	opts := quickOpts(6)
	opts.Runs, opts.Keep = 20, 15
	cert, err := certValidation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Headline <= 0 || cert.Headline > 1000 {
		t.Errorf("cert validation mean %.3f ms implausible", cert.Headline)
	}
	se, err := signEncrypt(opts)
	if err != nil {
		t.Fatal(err)
	}
	if se.Headline <= cert.Headline {
		t.Errorf("sign+encrypt (%.3f ms) should cost more than validation (%.3f ms)",
			se.Headline, cert.Headline)
	}
}

func TestRunWritesReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", quickOpts(7), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "paper:") {
		t.Fatalf("report malformed:\n%s", out)
	}
}

func TestBreakdownReportRendering(t *testing.T) {
	r, err := breakdownSamples(topology.Star, quickOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	rep := breakdownReport(topology.Star, "ref", r)
	if !strings.Contains(rep.Body, "wait-initial-responses") {
		t.Fatalf("report body missing phases:\n%s", rep.Body)
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "bb"}, [][]string{{"xxx", "y"}, {"1", "22222"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Fatalf("table header malformed:\n%s", out)
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	var o Options
	o.fillDefaults()
	if o.Runs != 120 || o.Keep != 100 || o.Scale != 200 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Runs: 10, Keep: 50}
	o.fillDefaults()
	if o.Keep != 10 {
		t.Fatalf("Keep not clamped to Runs: %d", o.Keep)
	}
}

// TestAllAblationsRun executes every ablation end-to-end with a shrunken
// repetition count, verifying that each builds its deployments, completes
// its sweep and renders a table.
func TestAllAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation deployment")
	}
	saved := ablationRuns
	ablationRuns = 3
	defer func() { ablationRuns = saved }()

	for _, e := range Registry {
		if e.Kind != Ablation {
			continue
		}
		var buf bytes.Buffer
		if err := Run(e.ID, quickOpts(9), &buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if !strings.Contains(buf.String(), e.ID) {
			t.Errorf("%s: report missing id:\n%s", e.ID, buf.String())
		}
	}
}

// dialCounter counts the stream sessions a requester opens.
type dialCounter struct {
	transport.Node
	dials atomic.Int64
}

func (n *dialCounter) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	return n.Node.Dial(addr)
}

// TestFiguresMeasureColdDiscoveries: a Discoverer is warm, but a paper
// measurement is a client that has just started — a figure of five runs dials
// its BDN five times, so the simulator's handshake is in every run of every
// table as it was before requesters kept their session.
func TestFiguresMeasureColdDiscoveries(t *testing.T) {
	opts := quickOpts(10)
	opts.Runs, opts.Keep = 5, 5
	err := onDeployment(paperDeployment(topology.Unconnected, opts), func(tb *testbed.Testbed) error {
		node := &dialCounter{Node: tb.ClientNode(simnet.SiteFSU, "client-fsu")}
		ntp := ntptime.NewService(node.Clock(), 0, nil)
		ntp.InitImmediately()
		cfg := figDiscoveryConfig()
		cfg.NodeName, cfg.BDNAddrs = "client-fsu", []string{tb.BDN.Addr()}
		r := collect(core.NewDiscoverer(node, ntp, cfg), opts.Runs)
		sum, err := r.summary(opts)
		if err != nil {
			return err
		}
		if r.failed() != 0 || sum.N != 5 {
			t.Errorf("%d of 5 runs failed, %d summarised", r.failed(), sum.N)
		}
		if dials := node.dials.Load(); dials != 5 {
			t.Errorf("a 5-run figure dialled its BDN %d times, want once per run", dials)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
