package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// Config parameterises a Discoverer. Zero values fall back to the paper's
// typical settings (see the Default* constants).
type Config struct {
	// NodeName identifies the requesting node (hostname / logical name).
	NodeName string
	// Realm is the requester's network realm, carried in the request for
	// realm-predicated response policies.
	Realm string
	// BDNAddrs lists broker-discovery-node stream addresses to try in order
	// (the node configuration file's gridservicelocator.org/.com/... list).
	BDNAddrs []string
	// MulticastGroup enables the BDN-less fallback: the request is
	// multicast so brokers in the local realm hear it directly.
	// Empty disables multicast.
	MulticastGroup string
	// CollectWindow bounds the wait for the initial set of responses
	// ("typically 4-5 seconds; this can be configured depending on the
	// accuracy that we seek to achieve").
	CollectWindow time.Duration
	// MaxResponses, when > 0, ends the collection early once N distinct
	// brokers have responded ("only the first N responses must be
	// considered").
	MaxResponses int
	// Selection parameterises shortlisting (weights, latency penalty,
	// target-set size).
	Selection SelectionConfig
	// PingCount is the number of UDP pings per target broker; the RTT is
	// the average over received pongs ("this PING operation may be repeated
	// multiple times to compute the average network Round Trip Time").
	PingCount int
	// PingWindow bounds the wait for pong replies.
	PingWindow time.Duration
	// AckTimeout is the inactivity period after which an unacknowledged
	// request is retransmitted.
	AckTimeout time.Duration
	// MaxRetransmits bounds retransmissions per BDN.
	MaxRetransmits int
	// Credentials are attached to the request for authorized access.
	Credentials []byte
	// Protocols lists transports the requester can speak.
	Protocols []string
	// Handle is where the discoverer reports: its metric families and a
	// per-request trace of every discovery — one span per phase plus point
	// events, keyed by the request UUID (Logger and Journal are unused). The
	// zero value is usable; see obs.Handle.
	obs.Handle
}

// Paper-typical defaults.
const (
	DefaultCollectWindow  = 4 * time.Second
	DefaultPingCount      = 3
	DefaultPingWindow     = 1 * time.Second
	DefaultAckTimeout     = 1 * time.Second
	DefaultMaxRetransmits = 2
)

func (c *Config) fillDefaults() {
	if c.CollectWindow <= 0 {
		c.CollectWindow = DefaultCollectWindow
	}
	if c.Selection.TargetSetSize <= 0 {
		c.Selection.TargetSetSize = DefaultTargetSetSize
	}
	// A zero Weights struct means "untouched": substitute the paper-typical
	// weighting. To genuinely disable a factor, set Weights explicitly.
	if c.Selection.Weights == (metrics.Weights{}) {
		c.Selection.Weights = metrics.DefaultWeights()
		if c.Selection.LatencyPenaltyPerMs == 0 {
			c.Selection.LatencyPenaltyPerMs = DefaultLatencyPenaltyPerMs
		}
	}
	if c.PingCount <= 0 {
		c.PingCount = DefaultPingCount
	}
	if c.PingWindow <= 0 {
		c.PingWindow = DefaultPingWindow
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.MaxRetransmits <= 0 {
		c.MaxRetransmits = DefaultMaxRetransmits
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []string{"tcp", "udp"}
	}
}

// Via describes how a discovery reached brokers.
type Via string

// Discovery paths.
const (
	ViaBDN       Via = "bdn"       // request accepted by a BDN
	ViaMulticast Via = "multicast" // BDN-less multicast fallback
	ViaCached    Via = "cached"    // last-target-set fallback
)

// Result is the outcome of one discovery.
type Result struct {
	RequestID   uuid.UUID     // the request UUID (keys the cross-node trace)
	Selected    BrokerInfo    // the broker to connect to
	SelectedRTT time.Duration // its measured average ping RTT
	PingDecided bool          // false when no target ponged and score decided
	TargetSet   []Candidate   // the shortlisted set T
	Responses   []Candidate   // every distinct response received
	Timing      Breakdown     // per-phase durations
	Via         Via           // how brokers were reached
	BDN         string        // acknowledging BDN, when Via == ViaBDN
	Retransmits int           // request retransmissions performed
}

// Discovery errors.
var (
	ErrNoResponses = errors.New("core: no discovery responses received")
	ErrNoPath      = errors.New("core: no BDN reachable, no multicast group, no cached target set")
)

// Discoverer drives broker discovery for one requesting node. It is warm: the
// datagram endpoint opened by the first Discover and the stream session to the
// BDN that last acknowledged are kept for the next one, so a re-discovery
// (the paper's §7 "after prolonged disconnects" case) pays no listen and no
// dial. Between discoveries it holds those two and no goroutine; Close lets
// both go.
type Discoverer struct {
	node transport.Node
	ntp  *ntptime.Service
	cfg  Config

	mu          sync.Mutex
	lastTargets []BrokerInfo // "Every node keeps track of its last target set of brokers"

	// run is a one-slot semaphore that serialises Discover and Close, which
	// share what follows. Its holder may sleep model time in a dial or a
	// window; a waiter on a channel counts as blocked in a synctest bubble,
	// where a waiter on a mutex would keep the bubble's clock from moving.
	run      chan struct{}
	pc       transport.PacketConn // response and ping endpoint; nil while cold
	sess     transport.Conn       // session to the BDN at sessAddr; nil while cold
	sessAddr string

	tel telemetry
}

// NewDiscoverer creates a discovery engine. ntp must be synchronized (or be
// synchronized before Discover is called) for latency estimation to work.
func NewDiscoverer(node transport.Node, ntp *ntptime.Service, cfg Config) *Discoverer {
	cfg.fillDefaults()
	cfg.Handle = cfg.Handle.Scoped("node", cfg.NodeName)
	d := &Discoverer{node: node, ntp: ntp, cfg: cfg, run: make(chan struct{}, 1)}
	d.initTelemetry(cfg.Metrics, cfg.Tracer)
	return d
}

// Config returns the effective (default-filled) configuration.
func (d *Discoverer) Config() Config { return d.cfg }

// LastTargetSet returns the brokers shortlisted by the most recent discovery.
func (d *Discoverer) LastTargetSet() []BrokerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]BrokerInfo(nil), d.lastTargets...)
}

// SeedTargetSet primes the cached target set (e.g. persisted across runs).
func (d *Discoverer) SeedTargetSet(brokers []BrokerInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastTargets = append([]BrokerInfo(nil), brokers...)
}

// Discover performs one complete broker discovery: issue the request (BDN,
// then multicast, then cached-target-set fallback), collect responses for the
// window, shortlist by delay+usage weighting, ping the target set over UDP
// and select the broker with the lowest measured delay.
//
// Every run is folded into the discovery metric families, and — when a tracer
// is configured — recorded as a per-request trace keyed by the request UUID:
// one span per Phase plus point events for the responses and the selection.
//
// Calls on one Discoverer run one at a time.
func (d *Discoverer) Discover() (*Result, error) {
	d.run <- struct{}{}
	res, err := d.discover()
	<-d.run
	d.observeOutcome(res, err)
	return res, err
}

// Close releases the datagram endpoint and the BDN session. The Discoverer
// stays usable: the next Discover opens both again, as the first one did.
func (d *Discoverer) Close() {
	d.run <- struct{}{}
	defer func() { <-d.run }()
	d.dropSession()
	if d.pc != nil {
		_ = d.pc.Close()
		d.pc = nil
	}
}

// endpoint returns the datagram endpoint, opening it on first use.
func (d *Discoverer) endpoint() (transport.PacketConn, error) {
	if d.pc == nil {
		pc, err := d.node.ListenPacket(0)
		if err != nil {
			return nil, fmt.Errorf("core: opening response endpoint: %w", err)
		}
		d.pc = pc
	}
	return d.pc, nil
}

// dial replaces the session with a fresh one to the BDN at addr.
func (d *Discoverer) dial(addr string) error {
	d.dropSession()
	conn, err := d.node.Dial(addr)
	if err != nil {
		return err
	}
	d.sess, d.sessAddr = conn, addr
	return nil
}

func (d *Discoverer) dropSession() {
	if d.sess != nil {
		_ = d.sess.Close()
		d.sess, d.sessAddr = nil, ""
	}
}

// now is NTP-corrected UTC — what latency estimation compares a response's
// timestamp with — or the node clock while the service is unsynchronized.
func (d *Discoverer) now() time.Time {
	if t, err := d.ntp.UTC(); err == nil {
		return t
	}
	return d.node.Clock().Now()
}

func (d *Discoverer) discover() (*Result, error) {
	clock := d.node.Clock()
	res := &Result{}

	pc, err := d.endpoint()
	if err != nil {
		return nil, err
	}

	req := &DiscoveryRequest{
		ID:           uuid.New(),
		Requester:    d.cfg.NodeName,
		Realm:        d.cfg.Realm,
		ResponseAddr: pc.LocalAddr(),
		Protocols:    d.cfg.Protocols,
		Credentials:  d.cfg.Credentials,
		IssuedAt:     d.now(),
	}
	res.RequestID = req.ID
	// Nil tracer yields a nil trace; every method on it is a no-op.
	tr := d.tel.tracer.Trace(req.ID.String())

	rec := phaseRecorder{clock: clock, timing: &res.Timing, tr: tr}

	rec.begin(PhaseRequestIssue)
	via, bdnName, retransmits, err := d.issue(req, pc)
	rec.end(obs.A("node", d.cfg.NodeName), obs.A("via", string(via)))
	if err != nil {
		return res, err
	}
	res.Via, res.BDN, res.Retransmits = via, bdnName, retransmits

	// The endpoint outlives a discovery, so what the previous one left on it
	// (responses past MaxResponses, late pongs) is read here and skipped: it
	// carries that discovery's request and probe UUIDs.
	rec.begin(PhaseWaitResponses)
	res.Responses = d.collect(pc, req.ID, tr)
	rec.end(obs.A("responses", strconv.Itoa(len(res.Responses))))
	if len(res.Responses) == 0 {
		return res, ErrNoResponses
	}

	rec.begin(PhaseShortlist)
	res.TargetSet = Shortlist(res.Responses, d.cfg.Selection)
	rec.end(obs.A("target-set", strconv.Itoa(len(res.TargetSet))))

	d.mu.Lock()
	d.lastTargets = d.lastTargets[:0]
	for _, c := range res.TargetSet {
		d.lastTargets = append(d.lastTargets, c.Response.Broker)
	}
	d.mu.Unlock()

	// UDP ping refinement of the target set.
	rec.begin(PhasePing)
	d.ping(pc, res.TargetSet, req.ID.String())
	rec.end()

	rec.begin(PhaseDecide)
	idx, pinged := PickByPing(res.TargetSet)
	if idx < 0 {
		return res, ErrNoResponses
	}
	res.Selected = res.TargetSet[idx].Response.Broker
	res.SelectedRTT = res.TargetSet[idx].PingRTT
	res.PingDecided = pinged
	rec.end(obs.A("selected", res.Selected.LogicalAddress),
		obs.A("rtt", res.SelectedRTT.String()))
	return res, nil
}

// issue delivers the request to the broker network: first via the configured
// BDNs (with ack-driven retransmission), then via multicast, then via the
// cached last target set.
func (d *Discoverer) issue(req *DiscoveryRequest, pc transport.PacketConn) (Via, string, int, error) {
	retransmits := 0
	frame := d.requestFrame(req)

	for _, addr := range d.bdnOrder() {
		bdnName, tries, err := d.issueToBDN(addr, frame, req.ID)
		retransmits += tries
		if err == nil {
			return ViaBDN, bdnName, retransmits, nil
		}
	}

	if d.cfg.MulticastGroup != "" {
		if err := pc.SendGroup(d.cfg.MulticastGroup, frame); err == nil {
			return ViaMulticast, "", retransmits, nil
		}
	}

	d.mu.Lock()
	cached := append([]BrokerInfo(nil), d.lastTargets...)
	d.mu.Unlock()
	if len(cached) > 0 {
		sent := 0
		for _, b := range cached {
			if udp := b.Endpoint("udp"); udp != "" {
				if err := pc.Send(udp, frame); err == nil {
					sent++
				}
			}
		}
		if sent > 0 {
			return ViaCached, "", retransmits, nil
		}
	}
	return "", "", retransmits, ErrNoPath
}

// requestFrame encodes the request as it goes on the wire, to a BDN or
// straight to brokers: the body in an event that carries the trace context.
func (d *Discoverer) requestFrame(req *DiscoveryRequest) []byte {
	ev := event.New(event.TypeDiscoveryRequest, "", EncodeDiscoveryRequest(req))
	ev.Source = d.cfg.NodeName
	ev.Timestamp = req.IssuedAt
	ev.SetTrace(req.ID.String(), d.cfg.NodeName, 0)
	return event.Encode(ev)
}

// bdnOrder is the order BDNs are asked in: the one holding the session, then
// the configured list.
func (d *Discoverer) bdnOrder() []string {
	addrs := d.cfg.BDNAddrs
	if d.sess == nil || (len(addrs) > 0 && addrs[0] == d.sessAddr) {
		return addrs
	}
	order := append(make([]string, 0, len(addrs)), d.sessAddr)
	for _, a := range addrs {
		if a != d.sessAddr {
			order = append(order, a)
		}
	}
	return order
}

// issueToBDN sends the request to one BDN — on the standing session when it
// is to that BDN, else on a fresh dial — and waits for the acknowledgement,
// retransmitting after AckTimeout of inactivity. It returns the number of
// retransmissions performed. A session that acknowledged is kept; one that
// failed is closed.
//
// A reused session may have died since the last discovery (the BDN restarted,
// or reaped it as idle): its first failure, of whatever kind, is answered
// with one fresh dial, and only silence for a whole AckTimeout makes the send
// that follows a retransmission. A BDN that is silently gone therefore fails
// over to the next address after the same MaxRetransmits+1 timeouts a cold
// requester waits.
func (d *Discoverer) issueToBDN(addr string, frame []byte, id uuid.UUID) (string, int, error) {
	reused := d.sess != nil && d.sessAddr == addr
	if !reused {
		if err := d.dial(addr); err != nil {
			return "", 0, err
		}
	}
	retransmits := 0
	for {
		bdnName, err := d.requestAck(frame, id)
		if err == nil {
			return bdnName, retransmits, nil
		}
		timedOut := errors.Is(err, transport.ErrTimeout)
		switch {
		case timedOut && retransmits == d.cfg.MaxRetransmits:
			d.dropSession()
			return "", retransmits, fmt.Errorf("core: BDN %s: %w", addr, transport.ErrTimeout)
		case reused:
			reused = false
			if err := d.dial(addr); err != nil {
				return "", retransmits, err
			}
		case !timedOut:
			d.dropSession()
			return "", retransmits, err
		}
		if timedOut {
			retransmits++ // retransmission after predefined period of inactivity
		}
	}
}

// requestAck sends the request frame on the session and waits up to
// AckTimeout for this request's acknowledgement. Anything else read meanwhile
// — a late duplicate ack of an earlier request, a frame that does not parse —
// is skipped without ending the wait.
func (d *Discoverer) requestAck(frame []byte, id uuid.UUID) (string, error) {
	if err := d.sess.Send(frame); err != nil {
		return "", err
	}
	clock := d.node.Clock()
	deadline := clock.Now().Add(d.cfg.AckTimeout)
	for {
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			return "", transport.ErrTimeout
		}
		reply, err := d.sess.RecvTimeout(remaining)
		if err != nil {
			return "", err
		}
		v, err := event.Parse(reply)
		if err != nil || v.Type != event.TypeDiscoveryAck {
			continue
		}
		ack, err := DecodeAck(v.Payload)
		if err != nil || ack.RequestID != id {
			continue
		}
		return ack.BDN, nil
	}
}

// collect gathers discovery responses for the collection window, ending early
// once MaxResponses distinct brokers have answered. Duplicate responses from
// the same broker (multiple injection points can reach it; it dedups, but
// responses may still race) are folded. Each accepted response is recorded as
// a point event on the trace, carrying the broker identity and the hop count
// the response's trace headers travelled.
func (d *Discoverer) collect(pc transport.PacketConn, id uuid.UUID, tr *obs.Trace) []Candidate {
	clock := d.node.Clock()
	deadline := clock.Now().Add(d.cfg.CollectWindow)
	seen := make(map[string]struct{})
	var out []Candidate
	for {
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			return out
		}
		payload, _, err := pc.RecvTimeout(remaining)
		if err != nil {
			return out
		}
		v, err := event.Parse(payload)
		if err != nil || v.Type != event.TypeDiscoveryResponse {
			continue
		}
		resp, err := DecodeDiscoveryResponse(v.Payload)
		if err != nil || resp.RequestID != id {
			continue
		}
		key := resp.Broker.LogicalAddress
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		receivedAt := d.now()
		_, _, hop, _ := v.Trace()
		tr.Event("response-received", clock.Now(),
			obs.A("node", d.cfg.NodeName),
			obs.A("broker", key),
			obs.A("hop", strconv.Itoa(int(hop))))
		out = append(out, Candidate{
			Response:   resp,
			ReceivedAt: receivedAt,
			EstLatency: EstimateLatency(resp.Timestamp, receivedAt),
		})
		if d.cfg.MaxResponses > 0 && len(out) >= d.cfg.MaxResponses {
			return out
		}
	}
}

// ping refines the target set: MeasureRTT sends PingCount UDP pings to every
// target broker under the discovery's trace context and fills each
// candidate's PingRTT/PingCount from the pongs that made the ping window.
func (d *Discoverer) ping(pc transport.PacketConn, targets []Candidate, traceID string) {
	addrs := make([]string, len(targets))
	for i := range targets {
		addrs[i] = targets[i].Response.Broker.Endpoint("udp")
	}
	rtts := MeasureRTT(pc, d.node.Clock(), d.cfg.NodeName, traceID, addrs, d.cfg.PingCount, d.cfg.PingWindow)
	for i, rtt := range rtts {
		targets[i].PingRTT, targets[i].PingCount = rtt.Mean, rtt.Count
	}
}
