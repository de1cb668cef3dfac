// Package collect implements the fabric-wide observability collector: a
// connectionless UDP sink for the span batches and metric snapshots every
// broker, BDN and requester exports (internal/obs Exporter), assembling
// per-request cross-node traces and a federated metrics view.
//
// Clock alignment: span timestamps are recorded on each node's local clock,
// which may be skewed from UTC. Every export packet carries the sending
// node's ntptime-estimated offset (local − UTC); the collector subtracts it
// — aligned = recorded − offset — which places all spans on one best-effort
// UTC timeline, accurate to each node's 1-20 ms NTP residual. That is enough
// to render dissemination steps separated by network or processing delays in
// true causal order.
package collect

import (
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/profile"
)

// DefaultTraceCapacity bounds the assembled-trace ring.
const DefaultTraceCapacity = 512

// Config parameterises a Collector.
type Config struct {
	// Listen is the UDP bind address for export packets (port 0 = auto).
	Listen string
	// TraceCapacity bounds the assembled-trace ring; the oldest trace is
	// evicted when full (<= 0 uses DefaultTraceCapacity).
	TraceCapacity int
	// Logger receives operational events; nil discards them.
	Logger *slog.Logger
	// Registry receives the collector's own metrics; nil creates a private
	// one (still served on /metrics, labelled node="obscollect").
	Registry *obs.Registry
	// Health parameterises the health engine's rules and sinks; nil runs
	// the engine with its documented defaults. The engine's Registry and
	// Logger default to the collector's own.
	Health *health.Config
	// HealthInterval is the rule-evaluation period (0 uses 1s; < 0
	// disables the ticker — tests call EvaluateHealthNow directly).
	HealthInterval time.Duration
	// EventCapacity bounds the per-node journal-event ring (<= 0 uses
	// DefaultEventCapacity). The ring also bounds how far back /topology
	// can time-travel.
	EventCapacity int
	// ProfileDir spools pulled and flight-recorded profiles to disk; ""
	// keeps them in memory only.
	ProfileDir string
	// ProfilePullInterval is the period of the loop that drains announced
	// node capturer rings into the collector's store (0 disables periodic
	// pulling; the flight recorder still works).
	ProfilePullInterval time.Duration
	// ProfileMaxCount / ProfileMaxBytes bound the profile store (<= 0 uses
	// DefaultProfileMaxCount / DefaultProfileMaxBytes).
	ProfileMaxCount int
	ProfileMaxBytes int64
	// FlightCPUSeconds is the CPU-sampling window of an alert-triggered
	// flight capture (<= 0 uses DefaultFlightCPUSeconds).
	FlightCPUSeconds int
	// DisableFlightRecorder turns off alert-triggered profile capture.
	DisableFlightRecorder bool

	// resolutions overrides the series store's retention tiers
	// (DefaultResolutions: 1s/10s/60s) — no binary does; this package's
	// tests shorten them.
	resolutions []Resolution
}

// span is one recorded span with its provenance: which node recorded it and
// that node's clock offset at export time.
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

// nodeState is everything known about one exporting node.
type nodeState struct {
	name      string
	offset    time.Duration // last reported clock offset
	lastSeen  time.Time     // collector wall clock
	metricsAt time.Time     // node-local capture time of families
	seq       uint64        // exporter snapshot sequence (restart detection)
	families  []obs.ExportFamily
	spans     uint64 // spans received from this node
	flowsAt   time.Time
	flows     []obs.FlowSnapshot // last per-topic flow snapshot (top-k)

	// Announced via node-info packets: where the node's telemetry
	// HTTP endpoint lives and whether a profile capturer is mounted there.
	telemetryAddr string
	profilesOn    bool
}

// Collector receives export packets and assembles the fabric view.
type Collector struct {
	cfg    Config
	pc     *net.UDPConn
	reg    *obs.Registry
	log    *slog.Logger
	store  *seriesStore
	health *health.Engine

	mu     sync.Mutex
	nodes  map[string]*nodeState
	traces map[string]*trace
	order  *obs.Ring[*trace] // retained traces, oldest first
	events map[string]*eventLog

	// journal records the collector's own control-plane events (the health
	// engine's alert transitions), drained into the event store under the
	// collector's identity so alerts sit on the same timeline as the link
	// and advertisement events that explain them.
	journal *obs.Journal

	// profiles is the collector-side profile plane (store + puller + flight
	// recorder).
	profiles *profilePlane

	packetsRx       *obs.Counter
	packetsBad      *obs.Counter
	spansRx         *obs.Counter
	profilesStored  *obs.Counter
	profilePullErrs *obs.Counter

	healthStop chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

// New binds the UDP endpoint and starts receiving export packets.
func New(cfg Config) (*Collector, error) {
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = DefaultTraceCapacity
	}
	if cfg.EventCapacity <= 0 {
		cfg.EventCapacity = DefaultEventCapacity
	}
	if cfg.ProfileMaxCount <= 0 {
		cfg.ProfileMaxCount = DefaultProfileMaxCount
	}
	if cfg.ProfileMaxBytes <= 0 {
		cfg.ProfileMaxBytes = DefaultProfileMaxBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	// The profile store opens first: a spool directory that cannot be made
	// or read is a configuration error, reported before any socket binds.
	pstore, err := profile.NewStore(cfg.ProfileDir, cfg.ProfileMaxCount, cfg.ProfileMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("collect: resolve %s: %w", cfg.Listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen %s: %w", cfg.Listen, err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Collector{
		cfg:        cfg,
		pc:         pc,
		reg:        reg,
		log:        cfg.Logger.With("component", "obscollect"),
		store:      newSeriesStore(cfg.resolutions, MaxSeries),
		nodes:      make(map[string]*nodeState),
		traces:     make(map[string]*trace),
		order:      obs.NewRing[*trace](cfg.TraceCapacity),
		events:     make(map[string]*eventLog),
		journal:    obs.NewJournal(cfg.EventCapacity, nil),
		healthStop: make(chan struct{}),
	}
	who := obs.L("node", "obscollect")
	const pkts = "narada_collect_packets_total"
	const pktsHelp = "Export packets received, by result."
	c.packetsRx = reg.Counter(pkts, pktsHelp, who, obs.L("result", "ok"))
	c.packetsBad = reg.Counter(pkts, pktsHelp, who, obs.L("result", "error"))
	c.spansRx = reg.Counter("narada_collect_spans_total",
		"Spans received from exporting nodes.", who)
	reg.GaugeFunc("narada_collect_nodes", "Exporting nodes seen.",
		func() float64 { return float64(c.NodeCount()) }, who)
	reg.GaugeFunc("narada_collect_traces", "Traces currently retained.",
		func() float64 { return float64(c.TraceCount()) }, who)
	reg.GaugeFunc("narada_collect_series", "Time series retained in the store.",
		func() float64 { return float64(c.store.SeriesCount()) }, who)
	reg.CounterFunc("narada_collect_series_dropped_total",
		"Series discarded at the store's capacity cap.", c.store.DroppedSeries, who)

	c.profiles = newProfilePlane(c, pstore, cfg.FlightCPUSeconds)
	c.profilesStored = reg.Counter("narada_collect_profiles_total",
		"Profiles stored (pulled or flight-recorded).", who)
	c.profilePullErrs = reg.Counter("narada_collect_profile_pull_errors_total",
		"Failed profile listing or download requests to nodes.", who)
	reg.GaugeFunc("narada_collect_profile_bytes", "Total bytes of retained profiles.",
		func() float64 { return float64(pstore.Bytes()) }, who)
	reg.GaugeFunc("narada_collect_profiles", "Profiles currently retained.",
		func() float64 { return float64(pstore.Count()) }, who)

	hc := health.Config{}
	if cfg.Health != nil {
		hc = *cfg.Health
	}
	if hc.Registry == nil {
		hc.Registry = reg
	}
	if hc.Logger == nil {
		hc.Logger = c.log
	}
	if len(hc.Sinks) == 0 {
		hc.Sinks = []health.Sink{health.NewLogSink(c.log)}
	}
	if hc.Journal == nil {
		hc.Journal = c.journal
	}
	if !cfg.DisableFlightRecorder {
		hc.Sinks = append(hc.Sinks, c.profiles)
	}
	c.health = health.New(hc)

	c.wg.Add(1)
	go c.recvLoop()
	if cfg.HealthInterval >= 0 {
		interval := cfg.HealthInterval
		if interval == 0 {
			interval = time.Second
		}
		c.wg.Add(1)
		go c.healthLoop(interval)
	}
	if cfg.ProfilePullInterval > 0 {
		c.wg.Add(1)
		go c.profiles.pullLoop(cfg.ProfilePullInterval)
	}
	return c, nil
}

// Addr returns the bound UDP address (what exporters dial).
func (c *Collector) Addr() string { return c.pc.LocalAddr().String() }

// Registry returns the collector's own metric registry — the prober records
// its SLIs here so they appear on the federated exposition.
func (c *Collector) Registry() *obs.Registry { return c.reg }

// Close stops the receive and health-evaluation loops, releases the socket
// and flushes still-firing alerts to the sinks so in-flight incidents
// survive the collector's own shutdown.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() {
		_ = c.pc.Close()
		close(c.healthStop)
		c.profiles.close()
		c.wg.Wait()
		c.health.Flush()
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

// NodeCount returns the number of distinct exporting nodes seen.
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

func (c *Collector) recvLoop() {
	defer c.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := c.pc.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		pkt, err := obs.DecodeExportPacket(buf[:n])
		if err != nil {
			c.packetsBad.Inc()
			c.log.Debug("bad export packet", "err", err)
			continue
		}
		c.packetsRx.Inc()
		c.ingest(pkt)
	}
}

func (c *Collector) ingest(pkt *obs.ExportPacket) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.nodes[pkt.Node]
	if ns == nil {
		ns = &nodeState{name: pkt.Node}
		c.nodes[pkt.Node] = ns
	}
	ns.offset = pkt.Offset
	ns.lastSeen = now
	if pkt.NodeInfo {
		ns.telemetryAddr = pkt.TelemetryAddr
		ns.profilesOn = pkt.ProfilesOn
	}
	if pkt.Families != nil {
		ns.families = pkt.Families
		ns.metricsAt = pkt.MetricsAt
		ns.seq = pkt.Seq
		c.store.Observe(now, pkt.Node, pkt.Seq, pkt.Families)
	}
	if pkt.Flows != nil {
		ns.flows = pkt.Flows
		ns.flowsAt = pkt.FlowsAt
	}
	if pkt.Events != nil {
		c.ingestEventsLocked(pkt)
	}
	for _, rec := range pkt.Spans {
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
		tr.spans = append(tr.spans, span{Node: pkt.Node, Offset: pkt.Offset, View: rec.Span})
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
