package experiments

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"narada/internal/topology"
)

// quickOpts keeps test runtime modest: 12 discoveries, 10 kept.
func quickOpts(seed int64) Options {
	return Options{Runs: 12, Keep: 10, Seed: seed}
}

func TestRegistryComplete(t *testing.T) {
	// The independent list: every experiment, in paper order.
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9",
		"fig11", "fig12",
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
	rep := breakdownReport(topology.Star, "ref", fixtureSamples(fixtureRuns(12)))
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
	if o.Runs != 120 || o.Keep != 100 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Runs: 10, Keep: 50}
	o.fillDefaults()
	if o.Keep != 10 {
		t.Fatalf("Keep not clamped to Runs: %d", o.Keep)
	}
}
