//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
	"narada/internal/transport"
)

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the simulated network's, so every model-time wait takes exactly its length
// and a figure is a function of its seed. f runs as a subtest, so the
// cleanups it registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

// TestBreakdownShape is the core reproduction assertion for Figures 2/9/11:
// the wait for the initial responses dominates everywhere, and the
// unconnected topology waits longest, the linear chain less, the star least.
// The claims are checked on their own, then the exact values against goldens.
func TestBreakdownShape(t *testing.T) {
	exact(t, func(t *testing.T) {
		var got []string
		var waits []time.Duration
		for _, topo := range []string{topology.Unconnected, topology.Linear, topology.Star} {
			r, err := breakdownSamples(topo, quickOpts(3))
			if err != nil {
				t.Fatal(err)
			}
			sum := r.breakdown()
			wait, pct := sum.Get(core.PhaseWaitResponses)/time.Duration(len(r.ok())), sum.Percent(core.PhaseWaitResponses)
			if pct <= 50 {
				t.Errorf("%s: wait share %.1f%%, expected the dominant phase", topo, pct)
			}
			waits = append(waits, wait)
			got = append(got, fmt.Sprintf("%s: wait %v per run, %.1f%%", topo, wait, pct))
		}
		if un, lin, star := waits[0], waits[1], waits[2]; !(un > lin && lin > star) {
			t.Errorf("wait per run: unconnected %v, linear %v, star %v; want unconnected > linear > star", un, lin, star)
		}
		want := []string{
			"unconnected: wait 331.8ms per run, 73.3%",
			"linear: wait 236.3ms per run, 66.1%",
			"star: wait 190.3ms per run, 61.1%",
		}
		if !slices.Equal(got, want) {
			t.Errorf("breakdown\n  %q\nwant\n  %q", got, want)
		}
	})
}

// TestSiteTimingShape asserts Figures 3-7's content: every site selects its
// nearest broker every time, and the transatlantic client (Cardiff) is slower
// than the client co-located with the BDN. The claims are checked on their
// own, then the exact values against goldens.
func TestSiteTimingShape(t *testing.T) {
	exact(t, func(t *testing.T) {
		nearest := map[string]string{
			simnet.SiteBloomington: "broker-indianapolis",
			simnet.SiteFSU:         "broker-fsu",
			simnet.SiteCardiff:     "broker-cardiff",
		}
		var got []string
		means := map[string]float64{}
		for _, site := range []string{simnet.SiteBloomington, simnet.SiteFSU, simnet.SiteCardiff} {
			opts := quickOpts(4)
			r, err := siteSamples(site, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.summary(opts)
			if err != nil {
				t.Fatal(err)
			}
			if sel := r.selection(); len(sel) != 1 || sel[nearest[site]] != len(r.ok()) {
				t.Errorf("%s: selected %s, want %s every time", site, r.selectionLine(), nearest[site])
			}
			means[site] = sum.Mean
			got = append(got, fmt.Sprintf("%s: %.2f ± %.2f ms, %s", site, sum.Mean, sum.StdDev, r.selectionLine()))
		}
		if means[simnet.SiteCardiff] <= means[simnet.SiteBloomington] {
			t.Errorf("Cardiff (%.2f ms) should be slower than Bloomington (%.2f ms)",
				means[simnet.SiteCardiff], means[simnet.SiteBloomington])
		}
		want := []string{
			"bloomington: 452.80 ± 0.00 ms, broker-indianapolis×12",
			"fsu: 548.50 ± 0.00 ms, broker-fsu×12",
			"cardiff: 761.00 ± 0.00 ms, broker-cardiff×12",
		}
		if !slices.Equal(got, want) {
			t.Errorf("site timing\n  %q\nwant\n  %q", got, want)
		}
	})
}

// TestMulticastShape asserts Figure 12: discovery works with no BDN, finds
// only realm-local brokers, and is much faster than the BDN path.
func TestMulticastShape(t *testing.T) {
	exact(t, func(t *testing.T) {
		opts := quickOpts(5)
		mc, err := multicastSamples(opts)
		if err != nil {
			t.Fatal(err)
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
		if runs, local := len(mc.ok()), realmLocal(mc); local != runs {
			t.Errorf("%d of %d runs left the realm", runs-local, runs)
		}
		if mcSum.Mean >= bdnSum.Mean {
			t.Errorf("multicast (%.2f ms) not faster than the BDN path (%.2f ms)", mcSum.Mean, bdnSum.Mean)
		}
		got := fmt.Sprintf("multicast %.2f ms, %d of %d realm-local; BDN path %.2f ms",
			mcSum.Mean, realmLocal(mc), len(mc.ok()), bdnSum.Mean)
		if want := "multicast 16.00 ms, 12 of 12 realm-local; BDN path 452.80 ms"; got != want {
			t.Errorf("got  %s\nwant %s", got, want)
		}
	})
}

// TestAllAblationsRun executes every ablation end-to-end with a shrunken
// repetition count, verifying that each builds its deployments, completes
// its sweep and renders a table.
func TestAllAblationsRun(t *testing.T) {
	exact(t, func(t *testing.T) {
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
	})
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
	exact(t, func(t *testing.T) {
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
	})
}
