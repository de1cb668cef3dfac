// Package experiments regenerates every table and figure of the paper's
// evaluation (section 9), plus ablations over the design choices the paper
// calls out. Each experiment is addressable by id ("fig2", "fig7",
// "abl-timeout", ...) through the Registry and runnable from cmd/nbexp. A run
// holds its samples — one record per discovery (samples.go) — and every table
// is a view of them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"narada/internal/stats"
)

// Options parameterise an experiment run.
type Options struct {
	// Runs is the number of discovery repetitions (paper: 120).
	Runs int
	// Keep is the number of samples retained after outlier removal
	// (paper: "the first 100 results were selected after removing
	// outliers").
	Keep int
	// Seed drives all randomness.
	Seed int64
}

func (o *Options) fillDefaults() {
	if o.Runs <= 0 {
		o.Runs = 120
	}
	if o.Keep <= 0 {
		o.Keep = 100
	}
	if o.Keep > o.Runs {
		o.Keep = o.Runs
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// paperSummary applies the paper's sampling (trim outliers at 2 sigma, keep
// the first Keep) and summarises.
func paperSummary(samples []float64, opts Options) (stats.Summary, error) {
	kept := stats.TrimOutliers(samples, opts.Keep, 2)
	return stats.Summarize(kept)
}

// Report is a rendered experiment result.
type Report struct {
	ID       string // set by Experiment.Run
	Title    string
	PaperRef string // the qualitative claim from the paper to compare against
	Body     string // pre-rendered table(s)
}

// WriteTo renders the report to w.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	rule := strings.Repeat("=", 72)
	fmt.Fprintf(&sb, "%s\n%s — %s\n", rule, r.ID, r.Title)
	if r.PaperRef != "" {
		fmt.Fprintf(&sb, "paper: %s\n", r.PaperRef)
	}
	fmt.Fprintf(&sb, "%s\n%s\n", rule, r.Body)
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// metricTable renders a Summary as the metric table printed under each of
// the paper's timing figures.
func metricTable(unit string, s stats.Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %12s\n", "Metric", "Time ("+unit+")")
	fmt.Fprintf(&sb, "%-24s %12.2f\n", "Mean", s.Mean)
	fmt.Fprintf(&sb, "%-24s %12.2f\n", "Standard deviation", s.StdDev)
	fmt.Fprintf(&sb, "%-24s %12.2f\n", "Maximum", s.Max)
	fmt.Fprintf(&sb, "%-24s %12.2f\n", "Minimum", s.Min)
	fmt.Fprintf(&sb, "%-24s %12.2f\n", "Error", s.Err)
	fmt.Fprintf(&sb, "%-24s %12d\n", "Samples", s.N)
	return sb.String()
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	underline := make([]string, len(header))
	for i := range header {
		underline[i] = strings.Repeat("-", widths[i])
	}
	writeRow(underline)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
