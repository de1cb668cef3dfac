package collect

import (
	"sort"
	"sync"
	"time"

	"narada/internal/obs"
)

// Resolution is one retention tier of the series store: Slots ring-buffer
// windows of Step each.
type Resolution struct {
	Step  time.Duration
	Slots int
}

// Span returns the wall-clock history a resolution retains.
func (r Resolution) Span() time.Duration { return r.Step * time.Duration(r.Slots) }

// resolutionsAt returns the store's tiers at scrape interval d: 300 slots of
// d, 360 of 10 d and 240 of 60 d. At the default 1 s that is 5 min at 1 s,
// 1 h at 10 s and 4 h at 1 min — enough history for the health engine's fast
// (300 d) and slow (3 600 d) SLO burn windows plus a few hours of dashboard
// context.
func resolutionsAt(d time.Duration) []Resolution {
	return []Resolution{{Step: d, Slots: 300}, {Step: 10 * d, Slots: 360}, {Step: 60 * d, Slots: 240}}
}

// MaxSeries bounds the number of distinct (node, metric, label-set)
// series the store tracks; excess series are dropped and counted, never
// allowed to grow collector memory without bound.
const MaxSeries = 8192

// slot is one downsampled window of one series at one resolution. The
// populated fields follow the series kind: counters accumulate the windowed
// increase (a rate numerator), gauges keep last/sum/count (last and average),
// histograms keep a mergeable window (bucket increments + sum + count).
type slot struct {
	start int64 // unix nanos of the window start; 0 = empty

	inc float64 // counter: total increase observed in this window

	last float64 // gauge: last sample
	sum  float64 // gauge: sum of samples (avg = sum/n)
	n    uint64  // gauge: sample count

	buckets []uint64 // histogram: per-bucket increments (len(bounds)+1)
	hsum    float64  // histogram: sum increment
	hcount  uint64   // histogram: count increment
}

// ring is one resolution's circular window buffer for one series.
type ring struct {
	step  time.Duration
	slots []slot
}

// at returns the slot covering t, clearing it first if it still holds an
// older window that mapped to the same index.
func (rg *ring) at(t time.Time) *slot {
	start := t.Truncate(rg.step).UnixNano()
	idx := int((start / int64(rg.step)) % int64(len(rg.slots)))
	if idx < 0 {
		idx += len(rg.slots)
	}
	s := &rg.slots[idx]
	if s.start != start {
		buckets := s.buckets
		*s = slot{start: start}
		if buckets != nil {
			for i := range buckets {
				buckets[i] = 0
			}
			s.buckets = buckets
		}
	}
	return s
}

// histCum is the cumulative histogram state remembered between snapshots so
// windowed increments can be derived.
type histCum struct {
	buckets []uint64
	sum     float64
	count   uint64
}

// seriesEntry is the retained state of one (node, metric, label-set) series:
// the cumulative last-snapshot values needed for delta derivation plus one
// ring per resolution.
type seriesEntry struct {
	metric string
	node   string
	kind   string
	labels []obs.Label
	bounds []float64 // histogram series only

	seen        bool   // first snapshot establishes the baseline
	lastSeq     uint64 // snapshot sequence at last observation
	lastCounter uint64
	lastHist    histCum

	rings []ring
}

// seriesStore is the in-memory multi-resolution time-series retention layer:
// every metrics snapshot the collector ingests is downsampled on the fly into
// per-series ring buffers, turning cumulative totals into windowed rates the
// health engine and /query can read. All methods are safe for concurrent use.
type seriesStore struct {
	mu        sync.Mutex
	res       []Resolution
	series    map[string]*seriesEntry   // node+metric+labelKey
	byMetric  map[string][]*seriesEntry // node+metric
	maxSeries int
	dropped   uint64 // series discarded at the maxSeries cap
}

func newSeriesStore(res []Resolution, maxSeries int) *seriesStore {
	if maxSeries <= 0 {
		maxSeries = MaxSeries
	}
	return &seriesStore{
		res:       res,
		series:    make(map[string]*seriesEntry),
		byMetric:  make(map[string][]*seriesEntry),
		maxSeries: maxSeries,
	}
}

// metricKey is the byMetric index key (a series key is this plus the
// series' obs.LabelKey).
func metricKey(node, metric string) string { return node + "\xff" + metric }

// Resolutions returns the configured retention tiers, finest first.
func (st *seriesStore) Resolutions() []Resolution { return st.res }

// DroppedSeries returns the number of series discarded at the capacity cap.
func (st *seriesStore) DroppedSeries() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// SeriesCount returns the number of tracked series.
func (st *seriesStore) SeriesCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

// entryFor returns (creating on first use) the series entry, or nil when the
// store is at capacity.
func (st *seriesStore) entryFor(node string, f obs.ExportFamily, s obs.ExportSeries) *seriesEntry {
	mk := metricKey(node, f.Name)
	key := mk + "\xff" + obs.LabelKey(s.Labels)
	e := st.series[key]
	if e != nil {
		return e
	}
	if len(st.series) >= st.maxSeries {
		st.dropped++
		return nil
	}
	e = &seriesEntry{
		metric: f.Name,
		node:   node,
		kind:   f.Kind,
		labels: append([]obs.Label(nil), s.Labels...),
		rings:  make([]ring, len(st.res)),
	}
	if f.Kind == "histogram" {
		e.bounds = append([]float64(nil), s.Bounds...)
	}
	for i, r := range st.res {
		e.rings[i] = ring{step: r.Step, slots: make([]slot, r.Slots)}
	}
	st.series[key] = e
	st.byMetric[mk] = append(st.byMetric[mk], e)
	return e
}

// Observe folds one node's metrics snapshot into every resolution ring. seq
// numbers the node's snapshots since its boot: a decrease marks a process
// restart, so cumulative values are re-baselined instead of producing a
// bogus negative (or enormous) delta.
func (st *seriesStore) Observe(now time.Time, node string, seq uint64, fams []obs.ExportFamily) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range fams {
		for _, s := range f.Series {
			e := st.entryFor(node, f, s)
			if e == nil {
				continue
			}
			restarted := e.seen && seq < e.lastSeq
			switch f.Kind {
			case "counter":
				var inc uint64
				switch {
				case !e.seen:
					inc = 0 // baseline: the pre-existing total is not a rate
				case restarted || s.Counter < e.lastCounter:
					inc = s.Counter // counter reset: the whole value is new
				default:
					inc = s.Counter - e.lastCounter
				}
				e.lastCounter = s.Counter
				if inc > 0 {
					for i := range e.rings {
						e.rings[i].at(now).inc += float64(inc)
					}
				}
			case "gauge":
				for i := range e.rings {
					sl := e.rings[i].at(now)
					sl.last = s.Gauge
					sl.sum += s.Gauge
					sl.n++
				}
			case "histogram":
				if len(s.Buckets) != len(e.bounds)+1 {
					continue // bucket layout changed; skip rather than corrupt
				}
				reset := restarted || s.Count < e.lastHist.count || len(e.lastHist.buckets) != len(s.Buckets)
				for i := range e.rings {
					sl := e.rings[i].at(now)
					if sl.buckets == nil {
						sl.buckets = make([]uint64, len(s.Buckets))
					}
					for b := range s.Buckets {
						d := s.Buckets[b]
						if e.seen && !reset {
							d -= e.lastHist.buckets[b]
						} else if !e.seen {
							d = 0
						}
						sl.buckets[b] += d
					}
					switch {
					case !e.seen:
					case reset:
						sl.hsum += s.Sum
						sl.hcount += s.Count
					default:
						sl.hsum += s.Sum - e.lastHist.sum
						sl.hcount += s.Count - e.lastHist.count
					}
				}
				e.lastHist = histCum{
					buckets: append(e.lastHist.buckets[:0], s.Buckets...),
					sum:     s.Sum,
					count:   s.Count,
				}
			}
			e.seen = true
			e.lastSeq = seq
		}
	}
}

// resolutionFor picks the finest tier whose retention covers window (the last
// tier when none does).
func (st *seriesStore) resolutionFor(window time.Duration) int {
	for i, r := range st.res {
		if r.Span() >= window {
			return i
		}
	}
	return len(st.res) - 1
}

// windowSlots calls fn for every populated slot of ring ri overlapping
// [now-window, now].
func (e *seriesEntry) windowSlots(ri int, now time.Time, window time.Duration, fn func(*slot)) {
	rg := &e.rings[ri]
	from := now.Add(-window).Truncate(rg.step).UnixNano()
	for i := range rg.slots {
		s := &rg.slots[i]
		if s.start == 0 || s.start < from || s.start > now.UnixNano() {
			continue
		}
		fn(s)
	}
}

// WindowSum returns the total counter increase for metric on node across all
// label sets over the trailing window. ok is false when the series is
// unknown (no data at all — distinct from a known-idle zero).
func (st *seriesStore) WindowSum(metric, node string, window time.Duration, now time.Time) (float64, bool) {
	total := 0.0
	by := st.WindowSumBy(metric, node, "", window, now)
	for _, v := range by {
		total += v
	}
	return total, by != nil
}

// WindowSumBy is WindowSum grouped by the value of one label key (nil for
// an unknown series).
func (st *seriesStore) WindowSumBy(metric, node, labelKey string, window time.Duration, now time.Time) map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries := st.byMetric[metricKey(node, metric)]
	if len(entries) == 0 {
		return nil
	}
	ri := st.resolutionFor(window)
	out := make(map[string]float64)
	for _, e := range entries {
		val := ""
		for _, l := range e.labels {
			if l.Key == labelKey {
				val = l.Value
				break
			}
		}
		e.windowSlots(ri, now, window, func(s *slot) { out[val] += s.inc })
	}
	return out
}

// LastGauge returns the most recent gauge sample for metric on node no older
// than maxAge, summed across label sets (matching /fabric's aggregation of
// e.g. per-link egress depths).
func (st *seriesStore) LastGauge(metric, node string, maxAge time.Duration, now time.Time) (float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries := st.byMetric[metricKey(node, metric)]
	if len(entries) == 0 {
		return 0, false
	}
	total, found := 0.0, false
	for _, e := range entries {
		var newest *slot
		e.windowSlots(0, now, maxAge, func(s *slot) {
			if s.n > 0 && (newest == nil || s.start > newest.start) {
				newest = s
			}
		})
		if newest != nil {
			total += newest.last
			found = true
		}
	}
	return total, found
}

// GaugeWindowStats summarises a gauge over the trailing window: the minimum
// and most recent per-slot values (summed across label sets, like LastGauge)
// and the sample-weighted average. The min/last pair is what trend rules
// need — goroutine-leak detection compares where the gauge ended against the
// lowest point it touched inside the window.
func (st *seriesStore) GaugeWindowStats(metric, node string, window time.Duration, now time.Time) (minV, lastV, avgV float64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries := st.byMetric[metricKey(node, metric)]
	if len(entries) == 0 {
		return 0, 0, 0, false
	}
	ri := st.resolutionFor(window)
	byStart := make(map[int64]float64)
	sum, n := 0.0, uint64(0)
	for _, e := range entries {
		if e.kind != "gauge" {
			continue
		}
		e.windowSlots(ri, now, window, func(s *slot) {
			if s.n == 0 {
				return
			}
			byStart[s.start] += s.last
			sum += s.sum
			n += s.n
		})
	}
	if len(byStart) == 0 || n == 0 {
		return 0, 0, 0, false
	}
	first := true
	var lastStart int64
	for start, v := range byStart {
		if first {
			minV, lastV, lastStart, first = v, v, start, false
			continue
		}
		if v < minV {
			minV = v
		}
		if start > lastStart {
			lastStart, lastV = start, v
		}
	}
	return minV, lastV, sum / float64(n), true
}

// WindowHist returns the merged histogram window for metric on node over the
// trailing window: bounds plus per-bucket observation increments. Multiple
// label sets merge when their bucket layouts agree.
func (st *seriesStore) WindowHist(metric, node string, window time.Duration, now time.Time) (bounds []float64, buckets []uint64, count uint64, sum float64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries := st.byMetric[metricKey(node, metric)]
	ri := st.resolutionFor(window)
	for _, e := range entries {
		if e.kind != "histogram" {
			continue
		}
		if bounds == nil {
			bounds = e.bounds
			buckets = make([]uint64, len(e.bounds)+1)
		} else if len(e.bounds) != len(bounds) {
			continue
		}
		e.windowSlots(ri, now, window, func(s *slot) {
			for b := range s.buckets {
				buckets[b] += s.buckets[b]
			}
			count += s.hcount
			sum += s.hsum
		})
	}
	return bounds, buckets, count, sum, bounds != nil
}

// NodesWith returns the nodes currently holding series for metric.
func (st *seriesStore) NodesWith(metric string) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := make(map[string]struct{})
	var out []string
	for _, e := range st.series {
		if e.metric != metric {
			continue
		}
		if _, ok := seen[e.node]; !ok {
			seen[e.node] = struct{}{}
			out = append(out, e.node)
		}
	}
	sort.Strings(out)
	return out
}

// SeriesPoint is one downsampled window of a queried series. Value is the
// windowed counter increase for counters and the last sample for gauges;
// histogram points carry count/sum and headline percentiles computed from the
// window's merged buckets.
type SeriesPoint struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
	Avg   float64   `json:"avg,omitempty"`
	Count uint64    `json:"count,omitempty"`
	Sum   float64   `json:"sum,omitempty"`
	P50   float64   `json:"p50,omitempty"`
	P90   float64   `json:"p90,omitempty"`
	P99   float64   `json:"p99,omitempty"`
}

// QuerySeries is one series of a /query response: identity plus its points
// in chronological order.
type QuerySeries struct {
	Metric string            `json:"metric"`
	Node   string            `json:"node"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []SeriesPoint     `json:"points"`
}

// Query returns the retained windows for metric at the given resolution step
// since the given time, node-filtered when node is non-empty. Unknown
// metrics and steps return nil (the HTTP layer distinguishes a bad step).
func (st *seriesStore) Query(metric, node string, step time.Duration, since, now time.Time) []QuerySeries {
	st.mu.Lock()
	defer st.mu.Unlock()
	ri := -1
	for i, r := range st.res {
		if r.Step == step {
			ri = i
			break
		}
	}
	if ri < 0 {
		return nil
	}
	window := now.Sub(since)
	if window < 0 {
		window = 0
	}
	var matched []*seriesEntry
	for _, e := range st.series {
		if e.metric == metric && (node == "" || e.node == node) {
			matched = append(matched, e)
		}
	}
	sort.Slice(matched, func(i, j int) bool {
		if matched[i].node != matched[j].node {
			return matched[i].node < matched[j].node
		}
		return obs.LabelKey(matched[i].labels) < obs.LabelKey(matched[j].labels)
	})
	var out []QuerySeries
	for _, e := range matched {
		qs := QuerySeries{Metric: e.metric, Node: e.node, Kind: e.kind}
		if len(e.labels) > 0 {
			qs.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				qs.Labels[l.Key] = l.Value
			}
		}
		e.windowSlots(ri, now, window, func(s *slot) {
			p := SeriesPoint{At: time.Unix(0, s.start)}
			switch e.kind {
			case "counter":
				p.Value = s.inc
			case "gauge":
				p.Value = s.last
				if s.n > 0 {
					p.Avg = s.sum / float64(s.n)
				}
				p.Count = s.n
			case "histogram":
				p.Count = s.hcount
				p.Sum = s.hsum
				if s.hcount > 0 {
					p.P50 = histQuantile(0.50, e.bounds, s.buckets)
					p.P90 = histQuantile(0.90, e.bounds, s.buckets)
					p.P99 = histQuantile(0.99, e.bounds, s.buckets)
				}
			}
			qs.Points = append(qs.Points, p)
		})
		sort.Slice(qs.Points, func(i, j int) bool { return qs.Points[i].At.Before(qs.Points[j].At) })
		if len(qs.Points) > 0 {
			out = append(out, qs)
		}
	}
	return out
}
