package collect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/profile"
)

// Handler assembles the collector's HTTP API:
//
//	/metrics       federated Prometheus exposition — every scraped node's
//	               last snapshot plus the collector's own metrics, with a
//	               node label identifying the source
//	/traces        JSON listing of retained trace summaries
//	/traces/{id}   one assembled cross-node trace, spans in aligned order;
//	               message traces additionally carry the per-hop queue-wait
//	               breakdown assembled from their msg-flush spans
//	/flows         JSON per-topic flow accounting: each node's top-k table
//	               (published/delivered/dropped-by-reason) plus the
//	               fabric-wide merge
//	/fabric        JSON fabric view: per-node liveness, clock offset, load,
//	               egress queue depth and discovery latency percentiles
//	/alerts        JSON health-alert list (firing first), with firing count;
//	               each alert links to its correlated journal-event window
//	/events        JSON control-plane event journal, merged across nodes in
//	               NTP-aligned order: ?node= &type= &since= &until= &limit=
//	/topology      fabric graph (nodes, links, advertisements with TTL
//	               state) replayed from the journal: ?at=RFC3339|5m (ago);
//	               absent or at=live reconstructs the present
//	/query         range query over the retained series store:
//	               ?metric= (required) &node= &res=10s &since=5m|RFC3339
//	/profiles      JSON listing of retained profiles (periodic + flight):
//	               ?node= &kind= &trigger= &since=5m|RFC3339
//	/profiles/{id} raw pprof download; ?view=top renders the dep-free text
//	               summary for goroutine/heap captures
//	/profiles/diff ?a={id}&b={id} text-mode site diff of two goroutine or
//	               heap captures (b − a)
//	/healthz       liveness
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/profiles", c.serveProfiles)
	mux.HandleFunc("/profiles/diff", c.serveProfileDiff)
	mux.HandleFunc("/profiles/{id}", c.serveProfile)
	mux.HandleFunc("/metrics", c.serveMetrics)
	mux.HandleFunc("/traces", c.serveTraces)
	mux.HandleFunc("/traces/{id}", c.serveTrace)
	mux.HandleFunc("/flows", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Flows())
	})
	mux.HandleFunc("/fabric", c.serveFabric)
	mux.HandleFunc("/alerts", c.serveAlerts)
	mux.HandleFunc("/events", c.serveEvents)
	mux.HandleFunc("/topology", c.serveTopology)
	mux.HandleFunc("/query", c.serveQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","goroutines":%d}`+"\n", runtime.NumGoroutine())
	})
	return mux
}

// federatedFamilies merges the last snapshot of every node with the
// collector's own registry. Series gain a node label naming their node
// when they do not already carry one (per-node registries label their own
// series with the same identity, so collisions cannot arise).
func (c *Collector) federatedFamilies() []obs.ExportFamily {
	merged := make(map[string]*obs.ExportFamily)
	add := func(fams []obs.ExportFamily, node string) {
		for _, f := range fams {
			dst := merged[f.Name]
			if dst == nil {
				merged[f.Name] = &obs.ExportFamily{Name: f.Name, Help: f.Help, Kind: f.Kind}
				dst = merged[f.Name]
			} else if dst.Kind != f.Kind {
				continue // conflicting registration across nodes; keep the first
			}
			for _, s := range f.Series {
				dst.Series = append(dst.Series, labelled(s, node))
			}
		}
	}
	add(c.reg.ExportSnapshot(), "")
	for _, ns := range c.nodeStates() { // by name, so the exposition is stable
		add(ns.families, ns.name)
	}

	out := make([]obs.ExportFamily, 0, len(merged))
	for _, f := range merged {
		sort.SliceStable(f.Series, func(i, j int) bool {
			return obs.LabelKey(f.Series[i].Labels) < obs.LabelKey(f.Series[j].Labels)
		})
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelled returns s with a node label naming its node, added when the
// series does not already carry one, and labels re-sorted by key.
func labelled(s obs.ExportSeries, node string) obs.ExportSeries {
	if node == "" {
		return s
	}
	for _, l := range s.Labels {
		if l.Key == "node" {
			return s
		}
	}
	labels := make([]obs.Label, 0, len(s.Labels)+1)
	labels = append(labels, s.Labels...)
	labels = append(labels, obs.L("node", node))
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	s.Labels = labels
	return s
}

func (c *Collector) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteFamiliesText(w, c.federatedFamilies())
}

func (c *Collector) serveTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Traces())
}

func (c *Collector) serveTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := c.Trace(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace not found"})
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// LatencySummary is a histogram condensed to its headline percentiles.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50Seconds"`
	P90   float64 `json:"p90Seconds"`
	P99   float64 `json:"p99Seconds"`
}

// FabricNode is the /fabric entry for one scraped node. The load fields
// are populated from whichever families the node serves (brokers report
// egress and link gauges; requesters report discovery latency).
type FabricNode struct {
	Name          string          `json:"name"`
	LastSeen      time.Time       `json:"lastSeen"`
	ClockOffsetMs float64         `json:"clockOffsetMs"`
	Spans         uint64          `json:"spans"`
	EgressDepth   float64         `json:"egressQueueDepth"`
	EgressDropped uint64          `json:"egressDropped"`
	Links         float64         `json:"links"`
	Clients       float64         `json:"clients"`
	Discovery     *LatencySummary `json:"discoveryLatency,omitempty"`
}

// FabricView is the /fabric payload.
type FabricView struct {
	Nodes  []FabricNode `json:"nodes"`
	Traces int          `json:"traces"`
}

// Fabric summarises every scraped node's health and load.
func (c *Collector) Fabric() FabricView {
	view := FabricView{Traces: c.TraceCount()}
	for _, ns := range c.nodeStates() {
		fn := FabricNode{
			Name:          ns.name,
			LastSeen:      ns.lastSeen,
			ClockOffsetMs: float64(ns.offset) / float64(time.Millisecond),
			Spans:         ns.spans,
		}
		for _, f := range ns.families {
			switch f.Name {
			case "narada_broker_egress_queue_depth":
				for _, s := range f.Series {
					fn.EgressDepth += s.Gauge
				}
			case "narada_broker_egress_dropped_total":
				for _, s := range f.Series {
					fn.EgressDropped += s.Counter
				}
			case "narada_broker_links":
				for _, s := range f.Series {
					fn.Links += s.Gauge
				}
			case "narada_broker_clients":
				for _, s := range f.Series {
					fn.Clients += s.Gauge
				}
			case "narada_discovery_total_seconds":
				for _, s := range f.Series {
					if s.Count == 0 {
						continue
					}
					fn.Discovery = &LatencySummary{
						Count: s.Count,
						P50:   histQuantile(0.50, s.Bounds, s.Buckets),
						P90:   histQuantile(0.90, s.Bounds, s.Buckets),
						P99:   histQuantile(0.99, s.Bounds, s.Buckets),
					}
				}
			}
		}
		view.Nodes = append(view.Nodes, fn)
	}
	return view
}

func (c *Collector) serveFabric(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Fabric())
}

// histQuantile estimates quantile q from fixed buckets (Prometheus-style
// linear interpolation within the bucket containing the target rank; the
// +Inf bucket clamps to the last finite bound).
func histQuantile(q float64, bounds []float64, buckets []uint64) float64 {
	if len(bounds) == 0 || len(buckets) != len(bounds)+1 {
		return 0
	}
	total := uint64(0)
	for _, b := range buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, b := range buckets {
		prev := cum
		cum += float64(b)
		if cum < rank {
			continue
		}
		if i == len(bounds) { // +Inf bucket
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		if b == 0 {
			return bounds[i]
		}
		return lower + (bounds[i]-lower)*(rank-prev)/float64(b)
	}
	return bounds[len(bounds)-1]
}

// AlertView is one /alerts entry: the alert plus the journal-event window
// surrounding its anchor — the root-cause correlation ("deadman at T ⇐ 3
// failed reconnect_attempt on link X in [T−30s, T]").
type AlertView struct {
	health.Alert
	EventWindow *EventWindow `json:"eventWindow,omitempty"`
	// Profiles links the flight-recorder evidence captured when this alert
	// fired (or, for a dead node, its freshest retained captures).
	Profiles []profile.Capture `json:"profiles,omitempty"`
}

// AlertsView is the /alerts payload.
type AlertsView struct {
	Firing int         `json:"firing"`
	Alerts []AlertView `json:"alerts"`
}

func (c *Collector) serveAlerts(w http.ResponseWriter, _ *http.Request) {
	alerts := c.health.Alerts()
	out := make([]AlertView, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, AlertView{
			Alert:       a,
			EventWindow: c.eventWindowFor(a.Node, a.Since),
			Profiles:    c.profiles.linksFor(a.Rule, a.Node),
		})
	}
	writeJSON(w, http.StatusOK, AlertsView{Firing: c.health.Firing(), Alerts: out})
}

func (c *Collector) serveEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := EventFilter{Node: q.Get("node"), Type: q.Get("type")}
	now, ok := time.Now(), true
	if s := q.Get("since"); s != "" {
		if f.Since, ok = parseWhen(w, s, now); !ok {
			return
		}
	}
	if s := q.Get("until"); s != "" {
		if f.Until, ok = parseWhen(w, s, now); !ok {
			return
		}
	}
	if s := q.Get("limit"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &f.Limit); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad limit"})
			return
		}
	}
	writeJSON(w, http.StatusOK, c.Events(f))
}

func (c *Collector) serveTopology(w http.ResponseWriter, r *http.Request) {
	at, live := time.Now(), true
	if s := r.URL.Query().Get("at"); s != "" && s != "live" {
		var ok bool
		if at, ok = parseWhen(w, s, at); !ok {
			return
		}
		live = false
	}
	writeJSON(w, http.StatusOK, c.TopologyAt(at, live))
}

// QueryView is the /query payload.
type QueryView struct {
	Metric string        `json:"metric"`
	Step   string        `json:"step"`
	Since  time.Time     `json:"since"`
	Series []QuerySeries `json:"series"`
}

func (c *Collector) serveQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "metric parameter is required"})
		return
	}
	resolutions := c.store.Resolutions()
	step := resolutions[0].Step
	span := resolutions[0].Span()
	if res := q.Get("res"); res != "" {
		d, err := time.ParseDuration(res)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad res: " + err.Error()})
			return
		}
		found := false
		for _, rg := range resolutions {
			if rg.Step == d {
				step, span, found = rg.Step, rg.Span(), true
				break
			}
		}
		if !found {
			steps := make([]string, len(resolutions))
			for i, rg := range resolutions {
				steps[i] = rg.Step.String()
			}
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "res must be one of: " + strings.Join(steps, ", ")})
			return
		}
	}
	now := time.Now()
	since := now.Add(-span)
	if s := q.Get("since"); s != "" {
		var ok bool
		if since, ok = parseWhen(w, s, now); !ok {
			return
		}
	}
	series := c.store.Query(metric, q.Get("node"), step, since, now)
	if series == nil {
		series = []QuerySeries{}
	}
	writeJSON(w, http.StatusOK, QueryView{
		Metric: metric, Step: step.String(), Since: since, Series: series,
	})
}

// parseWhen reads the value of a time parameter (/events since and until,
// /topology at, /query and /profiles since): a duration ago or an RFC3339
// time. Anything else is answered with one 400 for all of them, and ok is
// false.
func parseWhen(w http.ResponseWriter, s string, now time.Time) (t time.Time, ok bool) {
	t, err := obs.ParseWhen(s, now)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "a time parameter is a duration ago (30s) or an RFC3339 time; /topology's at may also be live"})
		return t, false
	}
	return t, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
