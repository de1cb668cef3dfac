// Package collect implements the fabric-wide observability collector: it
// scrapes the /telemetry document every watched broker, BDN and requester
// serves (plane.Scrape), assembling per-request cross-node traces, a
// federated metrics view, the event timeline and the health rules' inputs.
//
// Clock alignment: span timestamps are recorded on each node's local clock,
// which may be skewed from UTC. Every scrape carries the node's
// ntptime-estimated offset (local − UTC); the collector subtracts it —
// aligned = recorded − offset — which places all spans on one best-effort
// UTC timeline, accurate to each node's 1-20 ms NTP residual. That is enough
// to render dissemination steps separated by network or processing delays in
// true causal order.
package collect

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
	"narada/internal/obs/profile"
)

// Ring capacities.
const (
	// traceCapacity bounds the assembled-trace ring; the oldest trace is
	// evicted when full.
	traceCapacity = 512
	// eventCapacity bounds each node's journal-event ring, and with it how
	// far back /topology can time-travel.
	eventCapacity = 4096
	// maxScrapeBytes bounds one /telemetry document.
	maxScrapeBytes = 16 << 20
)

// Config parameterises a Collector. Nodes are added with Watch.
type Config struct {
	// Logger receives operational events; nil discards them.
	Logger *slog.Logger
	// Registry receives the collector's own metrics; nil creates a private
	// one (still served on /metrics, labelled node="obscollect").
	Registry *obs.Registry
	// ScrapeInterval is how often every node is scraped and the health
	// rules evaluated (<= 0 uses 1s). It is the collector's only clock:
	// every rule window and hold (health.WindowsAt), the series store's
	// tiers (resolutionsAt) and the flight recorder's CPU window
	// (flightCPUSeconds) are fixed multiples of it.
	ScrapeInterval time.Duration
	// Sinks receive alert transitions; nil logs them. The flight recorder
	// rides along either way.
	Sinks []health.Sink
	// ProfileDir spools periodic and flight-recorded profiles to disk; ""
	// keeps them in memory only.
	ProfileDir string

	// traceCap and eventCap shrink the rings, and manual stops the rule
	// ticker so a test calls evaluate itself — hooks for this package's
	// tests only.
	traceCap, eventCap int
	manual             bool
}

// span is one recorded span with its provenance: which node recorded it and
// that node's clock offset when it was scraped.
type span struct {
	Node   string
	Offset time.Duration
	View   obs.SpanView
}

// Aligned returns the span's timestamp mapped onto the collector's
// best-effort UTC timeline.
func (s span) Aligned() time.Time { return s.View.At.Add(-s.Offset) }

// trace is one assembling cross-node trace.
type trace struct {
	id        string
	firstSeen time.Time // collector wall clock, for the listing
	spans     []span
}

// nodeState is everything known about one scraped node.
type nodeState struct {
	name          string
	telemetryAddr string        // host:port it was scraped at ("" in process)
	boot          int64         // plane start of the last document (restart detection)
	seq           uint64        // documents since boot: the series store's snapshot sequence
	offset        time.Duration // last reported clock offset
	lastSeen      time.Time     // collector wall clock of the last successful scrape
	at            time.Time     // node-local build time of the last document
	families      []obs.ExportFamily
	flows         []obs.FlowSnapshot // last per-topic flow snapshot (top-k)
	spans         uint64             // spans received from this node
	lastSpan      uint64             // span sequence number of the newest one
}

// target is one node the collector scrapes: a telemetry endpoint over HTTP,
// or a plane in this process (its own journal, its prober, a testbed node).
type target struct {
	addr  string // host:port of the node's telemetry endpoint; "" for a local plane
	local *plane.Plane
	stop  chan struct{} // closed to stop its scrape loop

	mu   sync.Mutex // one scrape at a time
	next string     // the cursor the last ingested document handed back
}

// Collector scrapes nodes and assembles the fabric view.
type Collector struct {
	cfg    Config
	win    health.Windows
	reg    *obs.Registry
	log    *slog.Logger
	store  *seriesStore
	health *health.Engine

	// ctx ends with Close: it stops every loop and cancels every request to
	// a node still in flight.
	ctx    context.Context
	cancel context.CancelFunc
	born   time.Time // the origin of the scrape grid

	mu      sync.Mutex
	targets map[string]*target // watched endpoints by address
	nodes   map[string]*nodeState
	traces  map[string]*trace
	order   *obs.Ring[*trace] // retained traces, oldest first
	events  map[string]*eventLog

	// self is the collector's own plane: its journal records the health
	// engine's alert transitions, read like any node's so alerts sit on the
	// same timeline as the link and advertisement events that explain them.
	self *target

	// profiles is the collector-side profile plane (store + flight
	// recorder).
	profiles *profilePlane

	scrapesOK       *obs.Counter
	scrapesBad      *obs.Counter
	spansRx         *obs.Counter
	spansLost       *obs.Counter
	profilesStored  *obs.Counter
	profilePullErrs *obs.Counter

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a collector watching nothing yet.
func New(cfg Config) (*Collector, error) {
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = time.Second
	}
	if cfg.traceCap <= 0 {
		cfg.traceCap = traceCapacity
	}
	if cfg.eventCap <= 0 {
		cfg.eventCap = eventCapacity
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	// A spool directory that cannot be made or read is a configuration
	// error, reported before anything starts.
	pstore, err := profile.NewStore(cfg.ProfileDir, profileMaxCount, profileMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	self, err := plane.Start(plane.Config{Node: "obscollect", Registry: reg, Embedded: true})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Collector{
		cfg:     cfg,
		win:     health.WindowsAt(cfg.ScrapeInterval),
		reg:     reg,
		log:     cfg.Logger.With("component", "obscollect"),
		store:   newSeriesStore(resolutionsAt(cfg.ScrapeInterval), MaxSeries),
		ctx:     ctx,
		cancel:  cancel,
		born:    time.Now(),
		targets: make(map[string]*target),
		nodes:   make(map[string]*nodeState),
		traces:  make(map[string]*trace),
		order:   obs.NewRing[*trace](cfg.traceCap),
		events:  make(map[string]*eventLog),
		self:    &target{local: self},
	}
	who := obs.L("node", "obscollect")
	const scrapes = "narada_collect_scrapes_total"
	const scrapesHelp = "Node scrapes, by result."
	c.scrapesOK = reg.Counter(scrapes, scrapesHelp, who, obs.L("result", "ok"))
	c.scrapesBad = reg.Counter(scrapes, scrapesHelp, who, obs.L("result", "error"))
	c.spansRx = reg.Counter("narada_collect_spans_total",
		"Spans received from scraped nodes.", who)
	c.spansLost = reg.Counter("narada_collect_spans_lost_total",
		"Spans a node's span log evicted before a scrape read them.", who)
	reg.GaugeFunc("narada_collect_nodes", "Scraped nodes seen.",
		func() float64 { return float64(c.NodeCount()) }, who)
	reg.GaugeFunc("narada_collect_traces", "Traces currently retained.",
		func() float64 { return float64(c.TraceCount()) }, who)
	reg.GaugeFunc("narada_collect_series", "Time series retained in the store.",
		func() float64 { return float64(c.store.SeriesCount()) }, who)
	reg.CounterFunc("narada_collect_series_dropped_total",
		"Series discarded at the store's capacity cap.", c.store.DroppedSeries, who)

	c.profiles = newProfilePlane(c, pstore, flightCPUSeconds(cfg.ScrapeInterval))
	c.profilesStored = reg.Counter("narada_collect_profiles_total",
		"Profiles stored (periodic or flight-recorded).", who)
	c.profilePullErrs = reg.Counter("narada_collect_profile_pull_errors_total",
		"Profile requests to nodes that failed or answered over 4 MiB.", who)
	reg.GaugeFunc("narada_collect_profile_bytes", "Total bytes of retained profiles.",
		func() float64 { return float64(pstore.Bytes()) }, who)
	reg.GaugeFunc("narada_collect_profiles", "Profiles currently retained.",
		func() float64 { return float64(pstore.Count()) }, who)

	sinks := cfg.Sinks
	if len(sinks) == 0 {
		sinks = []health.Sink{health.NewLogSink(c.log)}
	}
	c.health = health.New(c.win, health.Config{
		Sinks:    append(slices.Clip(sinks), c.profiles),
		Registry: reg,
		Journal:  self.Handle().Journal,
		Logger:   c.log,
	})
	if !cfg.manual {
		c.spawn(c.healthLoop)
	}
	return c, nil
}

// Registry returns the collector's own metric registry — served on the
// federated /metrics beside every node's families.
func (c *Collector) Registry() *obs.Registry { return c.reg }

// Watch starts scraping the telemetry endpoint at addr (host:port) every
// scrape interval, on a goroutine of its own so a node that hangs delays no
// other node's scrape. Watching an address twice is a no-op.
func (c *Collector) Watch(addr string) {
	t := &target{addr: addr}
	c.mu.Lock()
	known := c.targets[addr] != nil
	if !known {
		c.targets[addr] = t
	}
	c.mu.Unlock()
	if !known {
		c.startLoop(t)
	}
}

// WatchPlane starts scraping a plane in this process every scrape interval,
// with no socket between them. stop, called once, ends the loop and takes the
// plane's final scrape: call it after the plane's component stops and before
// the plane closes, and the collector holds the node's last snapshot and
// node_stop. The collector never profiles an in-process plane: it has no
// address.
func (c *Collector) WatchPlane(p *plane.Plane) (stop func()) {
	t := &target{local: p}
	c.startLoop(t)
	return func() {
		close(t.stop)
		_ = c.scrape(t)
	}
}

// startLoop scrapes t now, and then on the collector's grid — every whole
// scrape interval since New — until it is stopped or the collector closes.
// healthLoop evaluates half an interval off that grid, so an evaluation reads
// every live node's latest scrape and never races one.
func (c *Collector) startLoop(t *target) {
	t.stop = make(chan struct{})
	c.spawn(func() {
		for {
			_ = c.scrape(t)
			next := time.NewTimer(c.win.Scrape - time.Since(c.born)%c.win.Scrape)
			select {
			case <-next.C:
				continue
			case <-t.stop:
			case <-c.ctx.Done():
			}
			next.Stop()
			return
		}
	})
}

// spawn runs f on a goroutine Close waits for, unless Close has begun.
func (c *Collector) spawn(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		f()
	}()
}

// scrape reads one document from t, ingests it and schedules the profile
// round it asks for. Every node's telemetry reaches the collector here.
func (c *Collector) scrape(t *target) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var doc *plane.Scrape
	if t.local != nil {
		s := t.local.Scrape(t.next)
		doc = &s
	} else {
		body, err := c.get("http://"+t.addr+"/telemetry?since="+url.QueryEscape(t.next), pullTimeout, maxScrapeBytes)
		if err == nil {
			doc, err = decodeScrape(body)
		}
		if err != nil {
			c.scrapesBad.Inc()
			c.log.Debug("scrape failed", "addr", t.addr, "err", err)
			return err
		}
	}
	c.scrapesOK.Inc()
	c.ingest(doc, t.addr)
	t.next = doc.Next
	if doc.ProfileEvery > 0 {
		c.profiles.schedule(doc.Node, doc.ProfileEvery, doc.Contention)
	}
	return nil
}

// get fetches url from a node, bounded by timeout and by the collector's
// context (cancelled on Close). A body over limit bytes is an error, not a
// truncation: a clipped document or profile is garbage.
func (c *Collector) get(url string, timeout time.Duration, limit int64) ([]byte, error) {
	ctx, cancel := context.WithTimeout(c.ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(body)) > limit {
		err = fmt.Errorf("body over %d bytes", limit)
	}
	return body, err
}

// decodeScrape parses a /telemetry body. A document that names no node is
// refused: everything it carries is filed under that name.
func decodeScrape(body []byte) (*plane.Scrape, error) {
	var s plane.Scrape
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	if s.Node == "" {
		return nil, errors.New("scrape names no node")
	}
	return &s, nil
}

// Close stops scraping and health evaluation, cancels every request to a node
// still in flight and flushes still-firing alerts to the sinks so in-flight
// incidents survive the collector's own shutdown.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.cancel()
		c.mu.Unlock()
		c.wg.Wait()
		c.health.Flush()
		c.self.local.Close()
	})
	return nil
}

// nodeStates returns a copy of every node's state, sorted by name — how
// every view reads the nodes. The copies share their families and flows
// slices with the live state; ingest replaces those whole and never writes
// into them.
func (c *Collector) nodeStates() []nodeState {
	c.mu.Lock()
	out := make([]nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		out = append(out, *ns)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NodeCount returns the number of distinct scraped nodes seen.
func (c *Collector) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// TraceCount returns the number of retained traces.
func (c *Collector) TraceCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// ingest files one node's document: its state, metric snapshot, flows,
// events and spans. addr is where it was scraped ("" in process).
func (c *Collector) ingest(doc *plane.Scrape, addr string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.nodes[doc.Node]
	if ns == nil {
		ns = &nodeState{name: doc.Node}
		c.nodes[doc.Node] = ns
	}
	if doc.Boot != ns.boot {
		// A restart: the node's sequences start over, and the series store
		// re-baselines cumulative values when the snapshot sequence drops.
		ns.boot, ns.seq, ns.lastSpan = doc.Boot, 0, 0
	}
	ns.seq++
	ns.telemetryAddr = addr
	ns.offset = doc.Offset
	ns.lastSeen = now
	ns.at = doc.At
	ns.families = doc.Families
	ns.flows = doc.Flows
	c.store.Observe(now, doc.Node, ns.seq, doc.Families)
	c.ingestEventsLocked(doc)
	for _, rec := range doc.Spans {
		if ns.lastSpan != 0 && rec.Seq > ns.lastSpan+1 {
			c.spansLost.Add(rec.Seq - ns.lastSpan - 1)
		}
		ns.lastSpan = rec.Seq
		ns.spans++
		c.spansRx.Inc()
		tr := c.traces[rec.TraceID]
		if tr == nil {
			tr = &trace{id: rec.TraceID, firstSeen: now}
			if old, evicted := c.order.Push(tr); evicted {
				delete(c.traces, old.id)
			}
			c.traces[rec.TraceID] = tr
		}
		tr.spans = append(tr.spans, span{Node: doc.Node, Offset: doc.Offset, View: rec.Span})
	}
}

// SpanInfo is one span of an assembled trace, with its recording node and
// the offset-corrected timestamp.
type SpanInfo struct {
	Node      string        `json:"node"`
	Name      string        `json:"name"`
	At        time.Time     `json:"at"`        // as recorded (node-local clock)
	AtAligned time.Time     `json:"atAligned"` // offset-corrected best-effort UTC
	Dur       time.Duration `json:"durNs,omitempty"`
	Attrs     []obs.Attr    `json:"attrs,omitempty"`
}

// Trace kinds: discovery/request traces carry the original span taxonomy;
// message traces are assembled from the msg-* spans a sampled publish leaves
// behind at each broker it crosses.
const (
	TraceKindRequest = "request"
	TraceKindMessage = "message"
)

// HopWait is one egress flush of a sampled message: where it happened, which
// queue class it left through, and how long the frame waited in that queue.
type HopWait struct {
	Node        string        `json:"node"`
	Dest        string        `json:"dest"` // "local" (client) or "link"
	QueueWaitNs time.Duration `json:"queueWaitNs"`
	At          time.Time     `json:"at"` // aligned flush time
}

// TraceInfo is an assembled cross-node trace, spans in aligned order. For
// message traces Hops breaks out the per-hop queue waits (one entry per
// msg-flush span, in aligned order) so the dominant queueing delay along the
// path is readable without parsing span attributes.
type TraceInfo struct {
	ID    string     `json:"id"`
	Kind  string     `json:"kind"`
	Nodes []string   `json:"nodes"`
	Spans []SpanInfo `json:"spans"`
	Hops  []HopWait  `json:"hops,omitempty"`
	// EventsURL selects the journal events surrounding the trace's aligned
	// span window — the control-plane context a slow or failed request ran in.
	EventsURL string `json:"eventsUrl,omitempty"`
}

// TraceSummary is the /traces listing entry.
type TraceSummary struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	FirstSeen time.Time `json:"firstSeen"`
	SpanCount int       `json:"spanCount"`
	Nodes     []string  `json:"nodes"`
}

// kind classifies a trace by its spans: any msg-* span makes it a message
// trace.
func (t *trace) kind() string {
	for _, s := range t.spans {
		if strings.HasPrefix(s.View.Name, "msg-") {
			return TraceKindMessage
		}
	}
	return TraceKindRequest
}

func (t *trace) nodes() []string {
	seen := make(map[string]struct{}, 4)
	var out []string
	for _, s := range t.spans {
		if _, ok := seen[s.Node]; !ok {
			seen[s.Node] = struct{}{}
			out = append(out, s.Node)
		}
	}
	sort.Strings(out)
	return out
}

// Trace returns the assembled trace for id, spans sorted by aligned time.
func (c *Collector) Trace(id string) (TraceInfo, bool) {
	c.mu.Lock()
	tr := c.traces[id]
	if tr == nil {
		c.mu.Unlock()
		return TraceInfo{}, false
	}
	spans := append([]span(nil), tr.spans...)
	out := TraceInfo{ID: id, Kind: tr.kind(), Nodes: tr.nodes()}
	c.mu.Unlock()
	for _, s := range spans {
		out.Spans = append(out.Spans, SpanInfo{
			Node:      s.Node,
			Name:      s.View.Name,
			At:        s.View.At,
			AtAligned: s.Aligned(),
			Dur:       s.View.Dur,
			Attrs:     s.View.Attrs,
		})
		// msg-flush spans carry the queue wait as their duration and the
		// queue class as the dest attribute; surface them as the per-hop
		// breakdown.
		if s.View.Name == "msg-flush" {
			hop := HopWait{Node: s.Node, QueueWaitNs: s.View.Dur, At: s.Aligned()}
			for _, a := range s.View.Attrs {
				if a.Key == "dest" {
					hop.Dest = a.Value
				}
			}
			out.Hops = append(out.Hops, hop)
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool {
		return out.Spans[i].AtAligned.Before(out.Spans[j].AtAligned)
	})
	sort.SliceStable(out.Hops, func(i, j int) bool {
		return out.Hops[i].At.Before(out.Hops[j].At)
	})
	if len(out.Spans) > 0 {
		first := out.Spans[0].AtAligned
		last := out.Spans[len(out.Spans)-1].AtAligned
		out.EventsURL = eventsURL(first.Add(-5*time.Second), last.Add(5*time.Second), "")
	}
	return out, true
}

// Traces returns summaries of every retained trace, oldest first.
func (c *Collector) Traces() []TraceSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceSummary, 0, c.order.Len())
	c.order.Each(func(tr *trace) {
		out = append(out, TraceSummary{
			ID:        tr.id,
			Kind:      tr.kind(),
			FirstSeen: tr.firstSeen,
			SpanCount: len(tr.spans),
			Nodes:     tr.nodes(),
		})
	})
	return out
}
