package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// ExportSeries is one labelled series of an ExportFamily, with its value
// captured at snapshot time. The populated fields follow the family kind:
// Counter for counters, Gauge for gauges, Bounds/Buckets/Sum/Count for
// histograms (Buckets holds len(Bounds)+1 non-cumulative counts, the last
// being the +Inf catch-all).
type ExportSeries struct {
	Labels  []Label   `json:"labels,omitempty"`
	Counter uint64    `json:"counter,omitempty"`
	Gauge   float64   `json:"gauge,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
}

// ExportFamily is the value snapshot of one metric family: what a scrape
// carries from a node to the collector, and what both ends render as
// Prometheus text.
type ExportFamily struct {
	Name   string         `json:"name"`
	Help   string         `json:"help,omitempty"`
	Kind   string         `json:"kind"` // "counter" | "gauge" | "histogram"
	Series []ExportSeries `json:"series"`
}

// ExportSnapshot captures every registered family with current values
// (function-backed series are evaluated), sorted by family name with series
// sorted by label key — the same order the exposition uses.
func (r *Registry) ExportSnapshot() []ExportFamily {
	fams := r.snapshotFamilies()
	out := make([]ExportFamily, 0, len(fams))
	for _, f := range fams {
		ef := ExportFamily{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, c := range f.snapshotChildren() {
			s := ExportSeries{Labels: c.labels}
			switch f.kind {
			case kindCounter:
				if c.counter != nil {
					s.Counter = c.counter.Value()
				} else if c.counterFn != nil {
					s.Counter = c.counterFn()
				}
			case kindGauge:
				if c.gauge != nil {
					s.Gauge = c.gauge.Value()
				} else if c.gaugeFn != nil {
					s.Gauge = c.gaugeFn()
				}
			case kindHistogram:
				s.Bounds, s.Buckets = c.hist.Snapshot()
				s.Sum = c.hist.Sum()
				s.Count = c.hist.Count()
			}
			ef.Series = append(ef.Series, s)
		}
		out = append(out, ef)
	}
	return out
}

// jsonFloat is a float64 that survives JSON: encoding/json rejects NaN and
// ±Inf, which a GaugeFunc may return, so those travel as the strings the
// Prometheus text format spells them with.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte(`"` + formatFloat(v) + `"`), nil
	}
	return strconv.AppendFloat(nil, float64(f), 'g', -1, 64), nil
}

// UnmarshalJSON reads a JSON number or one of those strings; both are
// strconv.ParseFloat syntax.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	v, err := strconv.ParseFloat(strings.Trim(string(b), `"`), 64)
	*f = jsonFloat(v)
	return err
}

// plainSeries is ExportSeries without its JSON methods; seriesJSON shadows
// its float fields with jsonFloat ones.
type plainSeries ExportSeries

type seriesJSON struct {
	plainSeries
	Gauge  jsonFloat   `json:"gauge,omitempty"`
	Bounds []jsonFloat `json:"bounds,omitempty"`
	Sum    jsonFloat   `json:"sum,omitempty"`
}

// MarshalJSON writes the series with non-finite values as strings.
func (s ExportSeries) MarshalJSON() ([]byte, error) {
	w := seriesJSON{plainSeries: plainSeries(s), Gauge: jsonFloat(s.Gauge), Sum: jsonFloat(s.Sum)}
	for _, b := range s.Bounds {
		w.Bounds = append(w.Bounds, jsonFloat(b))
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (s *ExportSeries) UnmarshalJSON(b []byte) error {
	var w seriesJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = ExportSeries(w.plainSeries)
	s.Gauge, s.Sum, s.Bounds = float64(w.Gauge), float64(w.Sum), nil
	for _, v := range w.Bounds {
		s.Bounds = append(s.Bounds, float64(v))
	}
	return nil
}
