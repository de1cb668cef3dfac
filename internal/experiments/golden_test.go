package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/simnet"
)

func fixtureSamples(runs []fixtureRun) samples {
	s := make(samples, len(runs))
	for i, r := range runs {
		s[i] = sample{r.res, r.err}
	}
	return s
}

// TestRenderersMatchParentGoldens pins every figure and sweep renderer to the
// text the commit before the sample record printed for the same hand-built
// discoveries (no simulator, no clock). testdata/*.golden were written there,
// by replaying that commit's measurement-loop bodies over fixtureRuns. Two
// liberties are taken: its "selected brokers" line came out in map order, and
// its "served by" note printed a Go map; both are recorded in count order.
func TestRenderersMatchParentGoldens(t *testing.T) {
	opts := Options{Runs: 12, Keep: 8, Seed: 1}
	all := fixtureSamples(fixtureRuns(12))
	check := func(name, id string, rep *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep.ID = id
		var got bytes.Buffer
		if _, err := rep.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the parent's rendering:\n--- got\n%s--- want\n%s", name, got.Bytes(), want)
		}
	}
	check("breakdown.golden", "fig9", breakdownReport("star", "ref", all), nil)
	rep, err := siteTimingReport(simnet.SiteCardiff, all, opts)
	check("sitetiming.golden", "fig4", rep, err)
	rep, err = multicastReport(all, opts)
	check("multicast.golden", "fig12", rep, err)

	failedOnly := all[4:5]
	rows := [][]string{
		sweepRow("250ms", all, ""),
		sweepRow("3", all[:7], selectedNote(nil, all[:7])),
		sweepRow("5", all, targetNote(nil, all)),
		sweepRow("10", all, nearestNote(nil, all)),
		sweepRow("primary BDN down", all, servedByNote(nil, all)),
		sweepRow("closest+farthest", all, fmt.Sprintf("%.0f stream frames/run", float64(1234-1000)/float64(12))),
		sweepRow("60%", failedOnly, selectedNote(nil, failedOnly)),
	}
	check("sweep.golden", "abl-golden",
		&Report{Title: "Sweep renderer", PaperRef: "ref", Body: sweepTable("window", rows)}, nil)
}

// TestReportIsAFunctionOfItsSamples renders a five-broker selection with two
// ties fifty times: the summary line and the dominant entry must come out one
// way. Before the selection was sorted they followed map order.
func TestReportIsAFunctionOfItsSamples(t *testing.T) {
	var s samples
	for i, name := range []string{"broker-umn", "broker-fsu", "broker-cardiff", "broker-ncsa", "broker-indianapolis",
		"broker-fsu", "broker-umn", "broker-ncsa"} {
		res := &core.Result{Selected: core.BrokerInfo{LogicalAddress: name}}
		res.Timing.Set(core.PhaseWaitResponses, time.Duration(400+i)*time.Millisecond)
		s = append(s, sample{res: res})
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		rep, err := siteTimingReport(simnet.SiteCardiff, s, Options{Runs: 8, Keep: 8})
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Body+selectedNote(nil, s)] = true
	}
	if len(seen) != 1 {
		t.Fatalf("one set of samples rendered %d different ways", len(seen))
	}
	const wantLine, wantDominant = "selected brokers: broker-fsu×2 broker-ncsa×2 broker-umn×2 broker-cardiff×1 broker-indianapolis×1  (failed runs: 0)",
		"selected broker-fsu 2/8"
	for body := range seen {
		if !strings.Contains(body, wantLine) || !strings.HasSuffix(body, wantDominant) {
			t.Errorf("rendering lacks %q or does not end in %q:\n%s", wantLine, wantDominant, body)
		}
	}
}
