package obs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"narada/internal/wire"
)

// Export packet framing. Packets are self-contained UDP datagrams: any one of
// them can be decoded on its own, so loss never corrupts collector state —
// it only widens the gap between snapshots.
const (
	exportMagic byte = 0xB8 // obs export frame marker (event frames use 0xB7)
	// One wire version: every binary builds from this tree, so a packet of
	// any other version is rejected rather than half-understood.
	exportVersion byte = 5

	packetSpans    byte = 1
	packetMetrics  byte = 2
	packetFlows    byte = 3 // space-saving top-k flow snapshot
	packetEvents   byte = 4 // control-plane journal batch
	packetNodeInfo byte = 5 // telemetry endpoint announcement
)

// Family kind bytes on the wire.
const (
	wireKindCounter   byte = 0
	wireKindGauge     byte = 1
	wireKindHistogram byte = 2
)

// MaxExportPacket bounds an encoded export datagram. Metric snapshots larger
// than this are split on family boundaries into several packets.
const MaxExportPacket = 60 * 1024

// ExportSeries is one labelled series of an ExportFamily, with its value
// captured at snapshot time. The populated fields follow the family kind:
// Counter for counters, Gauge for gauges, Bounds/Buckets/Sum/Count for
// histograms (Buckets holds len(Bounds)+1 non-cumulative counts, the last
// being the +Inf catch-all).
type ExportSeries struct {
	Labels  []Label
	Counter uint64
	Gauge   float64
	Bounds  []float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// ExportFamily is the value snapshot of one metric family: what travels from
// a node to the collector, and what both ends render as Prometheus text.
type ExportFamily struct {
	Name   string
	Help   string
	Kind   string // "counter" | "gauge" | "histogram"
	Series []ExportSeries
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

// SpanRecord pairs a completed span with the trace (request UUID) it belongs
// to — the unit the exporter ships.
type SpanRecord struct {
	TraceID string
	Span    SpanView
}

// ExportPacket is one decoded export datagram. Exactly one of Spans or
// Families is populated, matching the packet kind.
type ExportPacket struct {
	Node   string
	Offset time.Duration // sender's estimated local-clock offset from UTC

	Spans []SpanRecord // span batch

	MetricsAt time.Time // metrics snapshot: node-local capture time
	// Seq is the exporter's snapshot sequence number: it increments with
	// every metrics snapshot shipped and restarts from 1 when the process
	// does. Collectors derive counter rates from snapshot-to-snapshot
	// deltas; a sequence decrease marks a restart, so cumulative values are
	// re-baselined instead of read as a (possibly huge) spurious increase.
	Seq      uint64
	Families []ExportFamily

	FlowsAt time.Time      // flow snapshot: node-local capture time
	Flows   []FlowSnapshot // top-k per-topic flow accounting

	EventsAt time.Time // event batch: node-local drain time
	Events   []Event   // control-plane journal events, in seq order

	// Node-info announcement: where this node's telemetry HTTP
	// endpoint lives, so the collector can pull pprof profiles and capturer
	// rings on demand. NodeInfo distinguishes a real announcement from the
	// zero value.
	NodeInfo      bool
	InfoAt        time.Time
	TelemetryAddr string // host:port of the node's telemetry HTTP listener
	ProfilesOn    bool   // node runs an obs/profile capturer at /profiles
}

func encodeExportHeader(w *wire.Writer, kind byte, node string, offset time.Duration) {
	w.Byte(exportMagic)
	w.Byte(exportVersion)
	w.Byte(kind)
	w.String(node)
	w.Duration(offset)
}

// EncodeSpanPacket serialises a batch of spans into one export datagram.
func EncodeSpanPacket(node string, offset time.Duration, spans []SpanRecord) []byte {
	w := wire.GetWriter(256 + 96*len(spans))
	encodeExportHeader(w, packetSpans, node, offset)
	w.Uvarint(uint64(len(spans)))
	for _, r := range spans {
		w.String(r.TraceID)
		w.String(r.Span.Name)
		w.Time(r.Span.At)
		w.Duration(r.Span.Dur)
		w.Uvarint(uint64(len(r.Span.Attrs)))
		for _, a := range r.Span.Attrs {
			w.String(a.Key)
			w.String(a.Value)
		}
	}
	frame := w.Detach()
	w.Release()
	return frame
}

// EncodeFlowsPacket serialises a flow-table snapshot into one export
// datagram. The sketch is fixed-size (top-k plus the <other> fold bucket), so
// a single packet always suffices at any realistic K.
func EncodeFlowsPacket(node string, offset time.Duration, at time.Time, flows []FlowSnapshot) []byte {
	w := wire.GetWriter(128 + 64*len(flows))
	encodeExportHeader(w, packetFlows, node, offset)
	w.Time(at)
	w.Uvarint(uint64(len(flows)))
	for _, f := range flows {
		w.String(f.Topic)
		w.Uvarint(f.PubMsgs)
		w.Uvarint(f.PubBytes)
		w.Uvarint(f.DelMsgs)
		w.Uvarint(f.DelBytes)
		for _, d := range f.Drops {
			w.Uvarint(d)
		}
		w.Uvarint(f.ErrBound)
	}
	frame := w.Detach()
	w.Release()
	return frame
}

// EncodeNodeInfoPacket serialises a telemetry-endpoint announcement. It is
// tiny and idempotent; exporters resend it with every metrics tick so a
// collector restarted mid-run re-learns every node's endpoint within one
// export interval.
func EncodeNodeInfoPacket(node string, offset time.Duration, at time.Time, telemetryAddr string, profilesOn bool) []byte {
	w := wire.GetWriter(128)
	encodeExportHeader(w, packetNodeInfo, node, offset)
	w.Time(at)
	w.String(telemetryAddr)
	w.Bool(profilesOn)
	frame := w.Detach()
	w.Release()
	return frame
}

// maxEventsPerPacket keeps an event batch comfortably inside MaxExportPacket
// even with generous subject/detail strings (~200 bytes/event worst case).
const maxEventsPerPacket = 256

// EncodeEventsPacket serialises a batch of journal events into one export
// datagram. Callers chunk at maxEventsPerPacket; the decoder enforces only
// the generic list bound.
func EncodeEventsPacket(node string, offset time.Duration, at time.Time, events []Event) []byte {
	w := wire.GetWriter(128 + 48*len(events))
	encodeExportHeader(w, packetEvents, node, offset)
	w.Time(at)
	w.Uvarint(uint64(len(events)))
	for _, ev := range events {
		w.Uvarint(ev.Seq)
		w.String(ev.Type)
		w.Time(ev.At)
		w.String(ev.Subject)
		w.String(ev.Detail)
	}
	frame := w.Detach()
	w.Release()
	return frame
}

func encodeFamily(w *wire.Writer, f ExportFamily) {
	w.String(f.Name)
	w.String(f.Help)
	switch f.Kind {
	case "gauge":
		w.Byte(wireKindGauge)
	case "histogram":
		w.Byte(wireKindHistogram)
	default:
		w.Byte(wireKindCounter)
	}
	w.Uvarint(uint64(len(f.Series)))
	for _, s := range f.Series {
		w.Uvarint(uint64(len(s.Labels)))
		for _, l := range s.Labels {
			w.String(l.Key)
			w.String(l.Value)
		}
		switch f.Kind {
		case "counter":
			w.Uvarint(s.Counter)
		case "gauge":
			w.Float64(s.Gauge)
		case "histogram":
			w.Uvarint(uint64(len(s.Bounds)))
			for _, b := range s.Bounds {
				w.Float64(b)
			}
			for _, c := range s.Buckets {
				w.Uvarint(c)
			}
			w.Float64(s.Sum)
			w.Uvarint(s.Count)
		}
	}
}

// EncodeMetricsPackets serialises a metrics snapshot into one or more export
// datagrams, splitting on family boundaries so no packet exceeds maxBytes
// (<= 0 uses MaxExportPacket). Each packet repeats the header, capture time
// and snapshot sequence and is independently decodable. A single family
// larger than maxBytes still ships, alone, in an oversized packet.
func EncodeMetricsPackets(node string, offset time.Duration, at time.Time, seq uint64, fams []ExportFamily, maxBytes int) [][]byte {
	if maxBytes <= 0 {
		maxBytes = MaxExportPacket
	}
	// Encode each family body on its own so packets can be packed greedily
	// with the family count up front.
	bodies := make([][]byte, len(fams))
	for i, f := range fams {
		w := wire.GetWriter(512)
		encodeFamily(w, f)
		bodies[i] = w.Detach()
		w.Release()
	}
	header := func(n int) []byte {
		w := wire.GetWriter(64)
		encodeExportHeader(w, packetMetrics, node, offset)
		w.Time(at)
		w.Uvarint(seq)
		w.Uvarint(uint64(n))
		h := w.Detach()
		w.Release()
		return h
	}
	var packets [][]byte
	for i := 0; i < len(bodies); {
		size, n := 72, 0 // 72 ≈ worst-case header
		for i+n < len(bodies) && (n == 0 || size+len(bodies[i+n]) <= maxBytes) {
			size += len(bodies[i+n])
			n++
		}
		pkt := header(n)
		for j := 0; j < n; j++ {
			pkt = append(pkt, bodies[i+j]...)
		}
		packets = append(packets, pkt)
		i += n
	}
	return packets
}

// DecodeExportPacket parses one export datagram.
func DecodeExportPacket(b []byte) (*ExportPacket, error) {
	r := wire.NewReader(b)
	if m := r.Byte(); r.Err() == nil && m != exportMagic {
		return nil, fmt.Errorf("obs: export: bad magic 0x%02x", m)
	}
	version := r.Byte()
	if r.Err() == nil && version != exportVersion {
		return nil, fmt.Errorf("obs: export: unsupported version %d", version)
	}
	kind := r.Byte()
	p := &ExportPacket{Node: r.String(), Offset: r.Duration()}
	switch kind {
	case packetSpans:
		n := r.Uvarint()
		if r.Err() == nil && n > wire.MaxListLen {
			return nil, fmt.Errorf("obs: export: span batch of %d", n)
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			rec := SpanRecord{TraceID: r.String()}
			rec.Span.Name = r.String()
			rec.Span.At = r.Time()
			rec.Span.Dur = r.Duration()
			na := r.Uvarint()
			if r.Err() == nil && na > wire.MaxListLen {
				return nil, fmt.Errorf("obs: export: %d attrs", na)
			}
			for j := uint64(0); j < na && r.Err() == nil; j++ {
				rec.Span.Attrs = append(rec.Span.Attrs, Attr{Key: r.String(), Value: r.String()})
			}
			p.Spans = append(p.Spans, rec)
		}
	case packetMetrics:
		p.MetricsAt = r.Time()
		p.Seq = r.Uvarint()
		nf := r.Uvarint()
		if r.Err() == nil && nf > wire.MaxListLen {
			return nil, fmt.Errorf("obs: export: %d families", nf)
		}
		for i := uint64(0); i < nf && r.Err() == nil; i++ {
			f, ok := decodeFamily(r)
			if !ok {
				// A family that violates a list bound leaves the reader
				// desynchronised; nothing after it can be trusted.
				if err := r.Err(); err != nil {
					return nil, fmt.Errorf("obs: export: %w", err)
				}
				return nil, fmt.Errorf("obs: export: malformed family %q", f.Name)
			}
			p.Families = append(p.Families, f)
		}
	case packetFlows:
		p.FlowsAt = r.Time()
		n := r.Uvarint()
		if r.Err() == nil && n > wire.MaxListLen {
			return nil, fmt.Errorf("obs: export: flow batch of %d", n)
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			f := FlowSnapshot{Topic: r.String()}
			f.PubMsgs = r.Uvarint()
			f.PubBytes = r.Uvarint()
			f.DelMsgs = r.Uvarint()
			f.DelBytes = r.Uvarint()
			for j := range f.Drops {
				f.Drops[j] = r.Uvarint()
			}
			f.ErrBound = r.Uvarint()
			f.finishDrops()
			p.Flows = append(p.Flows, f)
		}
	case packetEvents:
		p.EventsAt = r.Time()
		n := r.Uvarint()
		if r.Err() == nil && n > wire.MaxListLen {
			return nil, fmt.Errorf("obs: export: event batch of %d", n)
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			ev := Event{Seq: r.Uvarint(), Type: r.String()}
			ev.At = r.Time()
			ev.Subject = r.String()
			ev.Detail = r.String()
			p.Events = append(p.Events, ev)
		}
	case packetNodeInfo:
		p.NodeInfo = true
		p.InfoAt = r.Time()
		p.TelemetryAddr = r.String()
		p.ProfilesOn = r.Bool()
	default:
		return nil, fmt.Errorf("obs: export: unknown packet kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: export: %w", err)
	}
	return p, nil
}

func decodeFamily(r *wire.Reader) (ExportFamily, bool) {
	f := ExportFamily{Name: r.String(), Help: r.String()}
	switch r.Byte() {
	case wireKindGauge:
		f.Kind = "gauge"
	case wireKindHistogram:
		f.Kind = "histogram"
	default:
		f.Kind = "counter"
	}
	n := r.Uvarint()
	if r.Err() != nil || n > wire.MaxListLen {
		return f, false
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		s := ExportSeries{}
		nl := r.Uvarint()
		if r.Err() != nil || nl > wire.MaxListLen {
			return f, false
		}
		for j := uint64(0); j < nl && r.Err() == nil; j++ {
			s.Labels = append(s.Labels, Label{Key: r.String(), Value: r.String()})
		}
		switch f.Kind {
		case "counter":
			s.Counter = r.Uvarint()
		case "gauge":
			s.Gauge = r.Float64()
		case "histogram":
			nb := r.Uvarint()
			if r.Err() != nil || nb > wire.MaxListLen {
				return f, false
			}
			for j := uint64(0); j < nb && r.Err() == nil; j++ {
				s.Bounds = append(s.Bounds, r.Float64())
			}
			for j := uint64(0); j <= nb && r.Err() == nil; j++ {
				s.Buckets = append(s.Buckets, r.Uvarint())
			}
			s.Sum = r.Float64()
			s.Count = r.Uvarint()
		}
		f.Series = append(f.Series, s)
	}
	return f, r.Err() == nil
}

// ExporterConfig parameterises an Exporter.
type ExporterConfig struct {
	// Addr is the collector's UDP address.
	Addr string
	// Node is this process's identity, stamped on every packet (and onto
	// every span the collector assembles from it).
	Node string
	// Offset reports the node's current estimated local-clock offset from
	// UTC (ntptime.Service.Offset); nil exports 0 (honest clock).
	Offset func() time.Duration
	// Registry, when set, is snapshotted every MetricsInterval and shipped;
	// the exporter's own counters also register here. Nil ships spans only.
	Registry *Registry
	// MetricsInterval is the metric-snapshot period (default 1s; < 0
	// disables periodic snapshots — a final one still ships on Close).
	MetricsInterval time.Duration
	// Journal, when set, is drained alongside every metrics snapshot and
	// shipped as event packets. The final drain on Close ships terminal
	// events (node_stop) from short-lived processes.
	Journal *Journal
	// Dial overrides how Addr is resolved and dialled (tests move the
	// collector mid-run; production leaves it nil for net.Dial("udp", …)).
	Dial func(addr string) (net.Conn, error)

	// The rest no binary sets; unexported so only this package's tests can
	// change them from their defaults.

	// spanBuffer bounds the in-flight span queue (default 256). When the
	// buffer is full new spans are dropped and counted, never blocked on.
	spanBuffer int
	// flushInterval bounds how long a partial span batch waits before being
	// sent (default 25ms).
	flushInterval time.Duration
	// maxBatch is the span count that triggers an immediate send (default 64).
	maxBatch int
	// redialAfter is the number of failed sends (accumulated since the last
	// redial attempt) after which the exporter re-resolves and redials Addr —
	// so a collector that restarted on a new address behind the same name (a
	// re-scheduled pod, a DNS flip) is picked up without restarting the
	// exporting broker. Failures are not required to be consecutive: ICMP
	// port-unreachable surfaces on a connected UDP socket only every other
	// write, so a dead collector alternates error and success. Default 8.
	redialAfter int
}

func (c *ExporterConfig) fillDefaults() {
	if c.MetricsInterval == 0 {
		c.MetricsInterval = time.Second
	}
	if c.spanBuffer <= 0 {
		c.spanBuffer = 256
	}
	if c.flushInterval <= 0 {
		c.flushInterval = 25 * time.Millisecond
	}
	if c.maxBatch <= 0 {
		c.maxBatch = 64
	}
	if c.redialAfter <= 0 {
		c.redialAfter = 8
	}
}

// Exporter ships completed spans and periodic metric snapshots to a collector
// over connectionless UDP. It is strictly fire-and-forget: RecordSpan is a
// non-blocking bounded-buffer enqueue (overflow increments a drop counter),
// datagram sends happen on a background goroutine, and send errors are
// counted and otherwise ignored — a slow, absent or dead collector costs the
// caller's hot path nothing. All methods are safe on a nil *Exporter.
type Exporter struct {
	cfg ExporterConfig

	sendMu    sync.Mutex // guards sink + sendFails (span and metric loops both send)
	sink      io.Writer  // UDP conn in production; injectable for tests
	sendFails int        // failed sends since the last redial attempt

	seq atomic.Uint64 // metrics snapshot sequence; see ExportPacket.Seq

	// announce and flows are bound after construction: the telemetry server
	// and the broker whose flow table is snapshotted both come up after the
	// exporter that reports them.
	announce atomic.Pointer[nodeInfoAnnounce]
	flows    atomic.Pointer[func() []FlowSnapshot]

	ch   chan SpanRecord
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	spansSent    *Counter
	spansDropped *Counter
	packetsOK    *Counter
	packetsErr   *Counter
	redials      *Counter
}

// NewExporter dials the collector and starts the export goroutines.
func NewExporter(cfg ExporterConfig) (*Exporter, error) {
	if cfg.Addr == "" {
		return nil, errors.New("obs: exporter: Addr is required")
	}
	if cfg.Node == "" {
		return nil, errors.New("obs: exporter: Node is required")
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("udp", addr) }
	}
	cfg.Dial = dial
	conn, err := dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: exporter: dial %s: %w", cfg.Addr, err)
	}
	e := newExporterWithSink(cfg, conn)
	return e, nil
}

// newExporterWithSink wires an exporter onto an arbitrary datagram sink;
// tests use it to make the sink block or fail deterministically.
func newExporterWithSink(cfg ExporterConfig, sink io.Writer) *Exporter {
	cfg.fillDefaults()
	e := &Exporter{
		cfg:  cfg,
		sink: sink,
		ch:   make(chan SpanRecord, cfg.spanBuffer),
		done: make(chan struct{}),
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	who := L("node", cfg.Node)
	const spans = "narada_obs_export_spans_total"
	const spansHelp = "Spans handed to the UDP exporter, by outcome."
	e.spansSent = reg.Counter(spans, spansHelp, who, L("outcome", "sent"))
	e.spansDropped = reg.Counter(spans, spansHelp, who, L("outcome", "dropped"))
	const pkts = "narada_obs_export_packets_total"
	const pktsHelp = "Export datagrams written, by result."
	e.packetsOK = reg.Counter(pkts, pktsHelp, who, L("result", "ok"))
	e.packetsErr = reg.Counter(pkts, pktsHelp, who, L("result", "error"))
	e.redials = reg.Counter("narada_obs_export_redials_total",
		"Collector re-resolutions after consecutive send failures.", who)

	e.wg.Add(1)
	go e.spanLoop()
	if cfg.MetricsInterval > 0 {
		e.wg.Add(1)
		go e.metricsLoop()
	}
	return e
}

// RecordSpan enqueues one completed span for export. Never blocks: a full
// buffer drops the span and increments the drop counter.
func (e *Exporter) RecordSpan(traceID string, sv SpanView) {
	if e == nil {
		return
	}
	select {
	case e.ch <- SpanRecord{TraceID: traceID, Span: sv}:
	default:
		e.spansDropped.Inc()
	}
}

// Dropped returns the number of spans dropped on a full buffer.
func (e *Exporter) Dropped() uint64 {
	if e == nil {
		return 0
	}
	return e.spansDropped.Value()
}

// Sent returns the number of spans handed to the network.
func (e *Exporter) Sent() uint64 {
	if e == nil {
		return 0
	}
	return e.spansSent.Value()
}

func (e *Exporter) offset() time.Duration {
	if e.cfg.Offset == nil {
		return 0
	}
	return e.cfg.Offset()
}

func (e *Exporter) send(pkt []byte) {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	if _, err := e.sink.Write(pkt); err != nil {
		e.packetsErr.Inc()
		e.sendFails++
		if e.sendFails >= e.cfg.redialAfter {
			e.redialLocked()
		}
		return
	}
	e.packetsOK.Inc()
}

// redialLocked re-resolves cfg.Addr and swaps the sink. The address is
// resolved fresh on every dial, so a collector that came back on a new IP
// behind the same name — or rebound its port after a restart — is picked up
// without restarting this process. Requires sendMu.
func (e *Exporter) redialLocked() {
	if e.cfg.Dial == nil || e.cfg.Addr == "" {
		return // sink-injected exporter with no address to re-resolve
	}
	conn, err := e.cfg.Dial(e.cfg.Addr)
	if err != nil {
		e.sendFails = 0 // back off: give the next redialAfter sends a chance
		return
	}
	if c, ok := e.sink.(io.Closer); ok {
		_ = c.Close()
	}
	e.sink = conn
	e.sendFails = 0
	e.redials.Inc()
}

// Redials returns the number of successful collector re-resolutions.
func (e *Exporter) Redials() uint64 {
	if e == nil {
		return 0
	}
	return e.redials.Value()
}

func (e *Exporter) flushSpans(batch []SpanRecord) []SpanRecord {
	if len(batch) == 0 {
		return batch
	}
	e.send(EncodeSpanPacket(e.cfg.Node, e.offset(), batch))
	e.spansSent.Add(uint64(len(batch)))
	return batch[:0]
}

func (e *Exporter) spanLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.flushInterval)
	defer ticker.Stop()
	batch := make([]SpanRecord, 0, e.cfg.maxBatch)
	for {
		select {
		case r := <-e.ch:
			batch = append(batch, r)
			if len(batch) >= e.cfg.maxBatch {
				batch = e.flushSpans(batch)
			}
		case <-ticker.C:
			batch = e.flushSpans(batch)
		case <-e.done:
			// Drain whatever was enqueued before Close, then flush.
			for {
				select {
				case r := <-e.ch:
					batch = append(batch, r)
					if len(batch) >= e.cfg.maxBatch {
						batch = e.flushSpans(batch)
					}
				default:
					e.flushSpans(batch)
					return
				}
			}
		}
	}
}

// nodeInfoAnnounce is the telemetry-endpoint announcement payload.
type nodeInfoAnnounce struct {
	addr       string
	profilesOn bool
}

// AnnounceTelemetry sets the telemetry HTTP address (host:port) this node
// serves /metrics and /debug/pprof on, and whether an obs/profile capturer
// is mounted at /profiles. The announcement ships immediately and then with
// every metrics tick. Safe on a nil exporter and at any time relative to
// Start.
func (e *Exporter) AnnounceTelemetry(addr string, profilesOn bool) {
	if e == nil || addr == "" {
		return
	}
	e.announce.Store(&nodeInfoAnnounce{addr: addr, profilesOn: profilesOn})
	e.send(EncodeNodeInfoPacket(e.cfg.Node, e.offset(), time.Now(), addr, profilesOn))
}

// SetFlows binds the flow-table snapshot shipped as a flow packet alongside
// every metrics snapshot from then on (the broker passes its Flows method).
// Safe on a nil exporter and concurrently with shipping.
func (e *Exporter) SetFlows(f func() []FlowSnapshot) {
	if e != nil && f != nil {
		e.flows.Store(&f)
	}
}

func (e *Exporter) shipMetrics() {
	now := time.Now()
	if a := e.announce.Load(); a != nil {
		e.send(EncodeNodeInfoPacket(e.cfg.Node, e.offset(), now, a.addr, a.profilesOn))
	}
	if e.cfg.Registry != nil {
		fams := e.cfg.Registry.ExportSnapshot()
		seq := e.seq.Add(1)
		for _, pkt := range EncodeMetricsPackets(e.cfg.Node, e.offset(), now, seq, fams, 0) {
			e.send(pkt)
		}
	}
	if f := e.flows.Load(); f != nil {
		if flows := (*f)(); len(flows) > 0 {
			e.send(EncodeFlowsPacket(e.cfg.Node, e.offset(), now, flows))
		}
	}
	if events := e.cfg.Journal.Drain(); len(events) > 0 {
		for len(events) > 0 {
			n := len(events)
			if n > maxEventsPerPacket {
				n = maxEventsPerPacket
			}
			e.send(EncodeEventsPacket(e.cfg.Node, e.offset(), now, events[:n]))
			events = events[n:]
		}
	}
}

func (e *Exporter) metricsLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.MetricsInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.shipMetrics()
		case <-e.done:
			e.shipMetrics() // final snapshot so short-lived processes report
			return
		}
	}
}

// Close flushes buffered spans, ships a final metric snapshot and releases
// the socket.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.once.Do(func() {
		close(e.done)
		e.wg.Wait()
		if c, ok := e.sink.(io.Closer); ok {
			_ = c.Close()
		}
	})
	return nil
}
