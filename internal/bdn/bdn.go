// Package bdn implements Broker Discovery Nodes: "registered nodes that
// facilitate the discovery of brokers within the broker network" (paper §2).
// A BDN stores broker advertisements (optionally filtered by an acceptance
// policy), maintains active connections to one or more brokers, acknowledges
// discovery requests in a timely manner, handles them idempotently, and
// propagates each request into the broker network — either to every
// registered broker (O(N) distribution, the unconnected-topology mode) or
// simultaneously to the closest and farthest brokers as measured by UDP
// pings (paper §4's efficient scheme). A set of BDNs has no leader: each
// member pulls the others' live tables (Config.Peers), so a registration one
// member missed while it was down or cut off reaches it anyway.
package bdn

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"time"

	"narada/internal/core"
	"narada/internal/dedup"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/topics"
	"narada/internal/transport"
	"narada/internal/wal"
)

// InjectionPolicy selects how a BDN propagates discovery requests.
type InjectionPolicy int

// Injection policies.
const (
	// InjectAll distributes the request to every registered broker — the
	// paper's unconnected-topology behaviour, "O(N) distribution and would
	// be inefficient".
	InjectAll InjectionPolicy = iota
	// InjectClosestFarthest issues the request "simultaneously to the
	// brokers that are closest and farthest from the BDN", letting the
	// broker network disseminate it onward.
	InjectClosestFarthest
)

// Config parameterises a BDN.
type Config struct {
	// Name identifies the BDN (e.g. "gridservicelocator.org").
	Name string
	// StreamPort binds the request/registration endpoint (0 = auto).
	StreamPort int
	// UDPPort binds the distance-measurement endpoint (0 = auto).
	UDPPort int
	// Policy selects the injection strategy.
	Policy InjectionPolicy
	// InjectOverhead models the BDN's per-injection marshalling and
	// scheduling cost (2005-era Java serialisation and connection
	// handling); it is what makes O(N) distribution visibly inefficient.
	InjectOverhead time.Duration
	// AdmitFilter, when set, decides whether to store an advertisement
	// ("a BDN in the US may be interested only in broker additions in North
	// America"); nil admits everything.
	AdmitFilter func(*core.Advertisement) bool
	// Private marks a private BDN: discovery requests must carry the
	// required credential before the BDN will disseminate them (paper §2.4).
	// The credential is configuration: what the running binary was given
	// wins over anything a data directory remembers.
	Private            bool
	RequiredCredential []byte
	// SweepInterval is how often expired registrations are pruned
	// (default 1s). Expired entries are also filtered out of every read
	// between sweeps, so the sweep cadence only bounds memory, not
	// correctness.
	SweepInterval time.Duration
	// DataDir, when set, makes the registry durable: every table mutation
	// is appended to a write-ahead log under this directory and periodic
	// snapshots capture the full table, so a restart recovers every live
	// advertisement with its remaining TTL instead of forcing a fleet-wide
	// re-registration storm. Empty keeps the legacy in-memory behaviour.
	DataDir string
	// Fsync selects the WAL durability policy (always/interval/never).
	Fsync wal.SyncPolicy
	// Peers lists the stream addresses of the other members of this BDN's
	// set. Every exchangeEvery the BDN pulls each peer's live table and
	// merges what it would have taken from the broker itself (merge).
	Peers []string
	// Handle is where the BDN reports: operational logs, its metric
	// families, per-request discovery spans, and registration lifecycle
	// journal events (ad_registered/ad_refreshed/ad_expired/ad_swept, node
	// start/stop). The zero value is usable; see obs.Handle.
	obs.Handle
}

// DefaultInjectOverhead is the default per-injection cost.
const DefaultInjectOverhead = 40 * time.Millisecond

// pingWindow bounds one round of broker distance measurement.
const pingWindow = 2 * time.Second

// exchangeEvery is how often a member pulls each peer's table.
const exchangeEvery = 2 * time.Second

// registration is one broker known to the BDN.
type registration struct {
	ad        *core.Advertisement
	conn      transport.Conn // live registration connection (nil if topic-learned)
	distance  time.Duration  // measured RTT from the BDN; 0 = unmeasured
	expiresAt time.Time      // refresh deadline; zero = never expires
}

// expired reports whether the registration's refresh deadline has lapsed.
func (r *registration) expired(now time.Time) bool {
	return !r.expiresAt.IsZero() && now.After(r.expiresAt)
}

// tombstone is what a delete leaves behind: the IssuedAt of the advertisement
// it removed, so a peer's copy of that advertisement is not merged back. It
// lasts one TTL after the delete; past that, a copy of the advertisement (one
// a peer recovered from disk included) fails merge's liveness test instead.
type tombstone struct {
	issued time.Time
	until  time.Time
}

// BDN is a broker discovery node.
type BDN struct {
	node transport.Node
	ntp  *ntptime.Service
	cfg  Config

	listener transport.Listener
	udp      transport.PacketConn

	mu      sync.Mutex
	brokers map[string]*registration // by broker logical address
	gone    map[string]tombstone     // deleted brokers, by logical address
	conns   map[transport.Conn]struct{}
	started bool

	// Durable-registry state, guarded by mu: log is the open WAL (nil when
	// not durable) and sinceSnap the records appended since snapCh was last
	// signalled, which it is every snapEvery records (snapshotEvery; a
	// benchmark keeps snapshots out of its loop by raising it).
	log       *wal.Log
	sinceSnap uint64
	snapEvery uint64
	snapCh    chan struct{} // wakes the snapshot loop

	reqDedup *dedup.Cache
	tel      telemetry

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates a BDN; call Start to begin serving.
func New(node transport.Node, ntp *ntptime.Service, cfg Config) (*BDN, error) {
	if cfg.Name == "" {
		return nil, errors.New("bdn: Name is required")
	}
	if cfg.InjectOverhead < 0 {
		cfg.InjectOverhead = DefaultInjectOverhead
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = time.Second
	}
	cfg.Handle = cfg.Handle.Scoped("bdn", cfg.Name)
	d := &BDN{
		node:      node,
		ntp:       ntp,
		cfg:       cfg,
		brokers:   make(map[string]*registration),
		gone:      make(map[string]tombstone),
		conns:     make(map[transport.Conn]struct{}),
		reqDedup:  dedup.New(dedup.DefaultCapacity),
		snapEvery: snapshotEvery,
		snapCh:    make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
	d.initTelemetry(cfg.Metrics, cfg.Tracer)
	return d, nil
}

// Start binds the BDN's endpoints and launches its accept loop.
func (d *BDN) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("bdn: already started")
	}
	d.started = true
	d.mu.Unlock()

	// Recover the durable registry before the listeners come up, so no
	// registration or discovery request can observe a half-rebuilt table.
	if err := d.initPersistence(); err != nil {
		return err
	}

	l, err := d.node.Listen(d.cfg.StreamPort)
	if err != nil {
		return fmt.Errorf("bdn %s: listen: %w", d.cfg.Name, err)
	}
	pc, err := d.node.ListenPacket(d.cfg.UDPPort)
	if err != nil {
		_ = l.Close()
		return fmt.Errorf("bdn %s: udp: %w", d.cfg.Name, err)
	}
	d.listener, d.udp = l, pc
	d.cfg.Logger.Info("bdn started", "addr", l.Addr())
	d.cfg.Journal.Emit(obs.EventNodeStart, l.Addr(), "udp="+pc.LocalAddr())
	d.wg.Add(2)
	go d.acceptLoop()
	go d.sweepLoop()
	if d.Durable() {
		d.wg.Add(1)
		go d.snapshotLoop()
	}
	for _, peer := range d.cfg.Peers {
		d.wg.Add(1)
		go d.exchangeLoop(peer)
	}
	return nil
}

// sweepLoop periodically prunes registrations whose refresh deadline lapsed,
// so a crashed broker's advertisement ages out instead of being shortlisted
// forever. Reads also filter expired entries, so the sweep only reclaims
// memory and emits the authoritative expiry log/metric.
func (d *BDN) sweepLoop() {
	defer d.wg.Done()
	clock := d.node.Clock()
	for {
		select {
		case <-d.closed:
			return
		case <-clock.After(d.cfg.SweepInterval):
			d.sweep()
		}
	}
}

// sweep commits a delete for every expired registration and forgets the
// tombstones no peer's copy can outlive any more. Expiry runs on the local
// node clock — the same base the deadlines were stamped against — never the
// NTP-corrected wall clock, so an NTP step can't mass-sweep live
// registrations.
func (d *BDN) sweep() {
	now := d.node.Clock().Now()
	d.mu.Lock()
	var expired []string
	for logical, r := range d.brokers {
		if r.expired(now) {
			expired = append(expired, logical)
		}
	}
	for _, logical := range expired {
		ad := d.brokers[logical].ad
		d.commitLocked(deleteRecord(logical, "expired", ad.IssuedAt, ad.TTL), false)
	}
	for logical, t := range d.gone {
		if now.After(t.until) {
			delete(d.gone, logical)
		}
	}
	d.mu.Unlock()
	for _, logical := range expired {
		d.tel.adsExpired.Inc()
		d.cfg.Logger.Info("registration expired", "broker", logical)
	}
	if len(expired) > 0 {
		d.cfg.Journal.Emit(obs.EventAdSwept, d.cfg.Name,
			fmt.Sprintf("expired=%d", len(expired)))
	}
}

// Close stops the BDN.
func (d *BDN) Close() {
	d.closeOnce.Do(func() {
		d.cfg.Journal.Emit(obs.EventNodeStop, d.cfg.Name, "")
		close(d.closed)
		if d.listener != nil {
			_ = d.listener.Close()
		}
		if d.udp != nil {
			_ = d.udp.Close()
		}
		d.mu.Lock()
		for c := range d.conns {
			_ = c.Close()
		}
		d.mu.Unlock()
		d.wg.Wait()
		d.closePersistence()
	})
}

// Addr returns the BDN's stream address (what goes in node config files).
func (d *BDN) Addr() string { return d.listener.Addr() }

// UDPAddr returns the BDN's distance-measurement endpoint address.
func (d *BDN) UDPAddr() string { return d.udp.LocalAddr() }

// Name returns the BDN's name.
func (d *BDN) Name() string { return d.cfg.Name }

// live is the one reader of the table for everything that acts on it: the
// unexpired registrations, sorted by logical address — an expired one must
// never be listed, pinged or injected into, or a dead broker could still be
// shortlisted between sweeps. They are copied by value under d.mu, so the
// caller works without the lock and without racing registration teardown
// (which nils the conn) or refreshes.
func (d *BDN) live() []registration {
	now := d.node.Clock().Now()
	d.mu.Lock()
	all := make([]registration, 0, len(d.brokers))
	for _, r := range d.brokers {
		if !r.expired(now) {
			all = append(all, *r)
		}
	}
	d.mu.Unlock()
	slices.SortFunc(all, func(a, b registration) int {
		return strings.Compare(a.ad.Broker.LogicalAddress, b.ad.Broker.LogicalAddress)
	})
	return all
}

// BrokerCount returns the number of stored, unexpired advertisements. It
// counts in place: /metrics reads it on every scrape.
func (d *BDN) BrokerCount() int {
	now := d.node.Clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, r := range d.brokers {
		if !r.expired(now) {
			n++
		}
	}
	return n
}

// Brokers returns the unexpired advertised broker infos, sorted by logical
// address.
func (d *BDN) Brokers() []core.BrokerInfo {
	live := d.live()
	out := make([]core.BrokerInfo, len(live))
	for i := range live {
		out[i] = live[i].ad.Broker
	}
	return out
}

func (d *BDN) now() time.Time {
	if t, err := d.ntp.UTC(); err == nil {
		return t
	}
	return d.node.Clock().Now()
}

// acceptLoop hands every accepted stream connection to serve.
func (d *BDN) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			return
		}
		d.serve(conn, func() string { return d.handleConn(conn) })
	}
}

// serve is the one owner of a BDN connection — accepted, dialled to inject and
// adopted, dialled to subscribe, or dialled to pull a peer's table. It tracks
// conn so Close can tear it down (the closed-check, the insert and the
// WaitGroup count share the mutex, and Close closes the channel before
// sweeping, so no connection slips past the sweep or the wait; a closed BDN
// serves nothing and reports false), runs session on its own goroutine until
// the connection is done, and then, and only here, lets go of it: the
// registration session names, if it still holds this connection (a
// re-registration may have replaced it), drops it, and the connection is
// untracked and closed.
func (d *BDN) serve(conn transport.Conn, session func() (logical string)) bool {
	d.mu.Lock()
	select {
	case <-d.closed:
		d.mu.Unlock()
		_ = conn.Close()
		return false
	default:
	}
	d.conns[conn] = struct{}{}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		logical := session()
		d.mu.Lock()
		if r, ok := d.brokers[logical]; ok && r.conn == conn {
			r.conn = nil
		}
		delete(d.conns, conn)
		d.mu.Unlock()
		_ = conn.Close()
	}()
	return true
}

// handleConn classifies one accepted connection by its first event — a peer
// member's table pull (LinkHello in the table role), a broker registration
// (any other LinkHello), a discovery-request session, or a bare
// fire-and-forget advertisement — and runs its session.
func (d *BDN) handleConn(conn transport.Conn) (logical string) {
	frame, err := conn.Recv()
	if err != nil {
		return ""
	}
	ev, err := event.Decode(frame)
	if err != nil {
		return ""
	}
	switch ev.Type {
	case event.TypeLinkHello:
		if ev.Header(event.HeaderRole) == event.RoleTable {
			d.serveTable(conn, ev.Payload)
			return ""
		}
		return d.serveBrokerRegistration(conn, "")
	case event.TypeDiscoveryRequest:
		d.serveRequester(conn, ev)
	case event.TypeAdvertisement:
		d.storeAdvertisement(ev, nil)
	}
	return ""
}

// serveBrokerRegistration reads a broker's registration connection until it
// dies: it stores the advertisement(s) the broker sends, which also keeps the
// connection available for request injection, and returns the broker the
// connection registered. logical is known up front for a connection inject
// dialled; an accepted one names its broker with its first stored
// advertisement.
func (d *BDN) serveBrokerRegistration(conn transport.Conn, logical string) string {
	for {
		frame, err := conn.Recv()
		if err != nil {
			return logical
		}
		ev, err := event.Decode(frame)
		if err != nil {
			d.tel.framesMalformed.Inc()
			continue
		}
		switch ev.Type {
		case event.TypeAdvertisement:
			if who := d.storeAdvertisement(ev, conn); who != "" {
				logical = who
			}
		case event.TypeLinkHeartbeat:
			// Echo the broker's keepalive so its liveness clock sees inbound
			// traffic; a BDN that stops echoing gets torn down and redialed.
			if conn.Send(frame) != nil {
				return logical
			}
		}
	}
}

// storeAdvertisement applies the admit filter and commits the advertisement
// as an upsert, attaching conn (when given) to the registration. It returns
// the broker's logical address when stored ("" when rejected).
func (d *BDN) storeAdvertisement(ev *event.Event, conn transport.Conn) string {
	ad, err := core.DecodeAdvertisement(ev.Payload)
	if err != nil {
		return ""
	}
	if !d.admits(ad) {
		d.tel.adsRejected.Inc()
		return ""
	}
	d.tel.adsStored.Inc()
	// The deadline is measured from receipt on the local node clock — the
	// broker's IssuedAt clock may be skewed, and the NTP-corrected clock may
	// step.
	d.mu.Lock()
	_, known := d.brokers[ad.Broker.LogicalAddress]
	d.commitLocked(upsertRecord(ad, ev.Payload, ad.TTL > 0, ad.TTL), false)
	if conn != nil {
		// Not part of the record: a connection is not replicated state.
		d.brokers[ad.Broker.LogicalAddress].conn = conn
	}
	d.mu.Unlock()
	// A refresh arrives every AdvertiseInterval from every broker and the
	// journal's ad_refreshed already records it: only a new registration is
	// worth an Info line. Checked first, so a dropped line boxes nothing.
	level := slog.LevelInfo
	if known {
		level = slog.LevelDebug
	}
	if ctx := context.Background(); d.cfg.Logger.Enabled(ctx, level) {
		d.cfg.Logger.Log(ctx, level, "advertisement stored",
			"broker", ad.Broker.LogicalAddress, "realm", ad.Broker.Realm)
	}
	return ad.Broker.LogicalAddress
}

// admits is the acceptance policy every advertisement passes, whether a broker
// sent it or a peer's table listed it: "Upon receipt of an advertisement at
// the BDN, this BDN may choose to store the advertisement or ignore it." Only
// a refusal of what a broker sent is counted: a peer lists the same entry on
// every pull.
func (d *BDN) admits(ad *core.Advertisement) bool {
	return d.cfg.AdmitFilter == nil || d.cfg.AdmitFilter(ad)
}

// authorized reports whether cred is what this BDN requires: "A private BDN
// must also require the presentation of appropriate credentials before it
// decides whether it will disseminate the broker discovery request." A peer
// pulling the table presents it too.
func (d *BDN) authorized(cred []byte) bool {
	want := d.Credential()
	return !d.cfg.Private || len(want) == 0 || string(cred) == string(want)
}

// requesterIdle is how long, on the node clock, a requester session may stay
// silent before the BDN closes it. Requesters keep their session between
// discoveries and redial when it is gone, so without the bound a BDN would
// hold one goroutine and one tracked connection for every requester that ever
// asked.
const requesterIdle = 30 * time.Second

// serveRequester processes one discovery-request session, which lasts for as
// many requests as the requester sends on it: acknowledge, check private-BDN
// credentials, and inject the request into the broker network.
// Retransmissions of the same UUID are idempotent — re-acknowledged without
// re-injection.
func (d *BDN) serveRequester(conn transport.Conn, first *event.Event) {
	ev := first
	for {
		if ev.Type == event.TypeDiscoveryRequest {
			req, err := core.DecodeDiscoveryRequest(ev.Payload)
			if err == nil {
				d.processRequest(conn, ev, req)
			}
		}
		frame, err := conn.RecvTimeout(requesterIdle)
		if err != nil {
			return
		}
		ev, err = event.Decode(frame)
		if err != nil {
			return
		}
	}
}

func (d *BDN) processRequest(conn transport.Conn, ev *event.Event, req *core.DiscoveryRequest) {
	// Normalise trace context (healed onto ev when the requester stamped
	// none), so every frame the BDN emits downstream carries it.
	traceID, origin, hop := core.RequestTrace(ev, req)

	// "A BDN is expected to acknowledge the receipt of a discovery request
	// in a timely manner."
	ack := &core.Ack{RequestID: req.ID, BDN: d.cfg.Name}
	reply := event.New(event.TypeDiscoveryAck, "", core.EncodeAck(ack))
	reply.Source = d.cfg.Name
	reply.Timestamp = d.now()
	reply.SetTrace(traceID, origin, hop)
	_ = conn.Send(event.Encode(reply))
	d.tel.reqAcked.Inc()
	d.traceEvent(traceID, "bdn-ack", "requester", req.Requester, "origin", origin)

	if !d.authorized(req.Credentials) {
		d.tel.reqDenied.Inc()
		return
	}
	// "Multiple requests forwarded to the same BDN would be idempotent."
	if d.reqDedup.Seen(req.ID) {
		d.tel.reqDup.Inc()
		return
	}
	d.cfg.Logger.Debug("injecting discovery request",
		"requester", req.Requester, "id", traceID)
	d.inject(ev, traceID, origin)
}

// inject propagates the discovery request into the broker network according
// to the configured policy. Each transmission pays the BDN's InjectOverhead
// serially — the source of the unconnected topology's O(N) inefficiency.
// reqID keys the trace events; origin names the request's issuing node.
func (d *BDN) inject(ev *event.Event, reqID, origin string) {
	targets := d.injectionTargets()
	frame := event.Encode(ev)
	for _, r := range targets {
		if d.cfg.InjectOverhead > 0 {
			d.node.Clock().Sleep(d.cfg.InjectOverhead)
		}
		d.tel.injects.Inc()
		d.traceEvent(reqID, "bdn-inject", "broker", r.ad.Broker.LogicalAddress, "origin", origin)
		if r.conn != nil {
			_ = r.conn.Send(frame)
			continue
		}
		// Broker without a live registration connection (topic-learned, or
		// recovered from the WAL after a restart): dial its advertised
		// stream endpoint, inject as a client, and adopt the session as the
		// registration connection so later injections reuse it. Closing
		// right after Send would drop the frame while it is still in
		// flight.
		if addr := r.ad.Broker.Endpoint("tcp"); addr != "" {
			if c, err := d.node.Dial(addr); err == nil {
				_ = c.Send(frame)
				d.adoptInjectionConn(r.ad.Broker.LogicalAddress, c)
			}
		}
	}
}

// adoptInjectionConn serves a freshly dialed injection connection as the
// broker's registration connection, the same way a broker-initiated
// registration is served. (The broker side treats the session as an idle
// client and never sends on it, so the session just waits for it to die.)
// When adoption loses the race (the broker re-registered, or was dropped) the
// session is a model-time linger instead, so the request frame just sent on
// the connection still reaches the broker before serve closes it.
func (d *BDN) adoptInjectionConn(logical string, conn transport.Conn) {
	d.serve(conn, func() string {
		d.mu.Lock()
		r, ok := d.brokers[logical]
		adopted := ok && r.conn == nil
		if adopted {
			r.conn = conn
		}
		d.mu.Unlock()
		if adopted {
			return d.serveBrokerRegistration(conn, logical)
		}
		select {
		case <-d.node.Clock().After(time.Second):
		case <-d.closed:
		}
		return ""
	})
}

// injectionTargets picks the live brokers to inject into under the policy.
func (d *BDN) injectionTargets() []registration {
	all := d.live()
	if d.cfg.Policy == InjectAll || len(all) <= 2 {
		return all
	}
	closest, farthest := pickClosestFarthest(all)
	all[0], all[1] = closest, farthest
	return all[:2]
}

// pickClosestFarthest returns the closest and the farthest of brokers (in
// logical-address order, at least one) by measured distance in one scan.
// Unmeasured brokers rank after every measured one, so fresh registrations
// are still reachable. Ties keep address order: the closest is the first of
// its distance, the farthest the last of its.
func pickClosestFarthest(brokers []registration) (closest, farthest registration) {
	// nearer is a strict order: measured before unmeasured, then ascending
	// distance; unmeasured brokers tie with each other.
	nearer := func(a, b time.Duration) bool { return a != 0 && (b == 0 || a < b) }
	closest, farthest = brokers[0], brokers[0]
	for _, r := range brokers[1:] {
		if nearer(r.distance, closest.distance) {
			closest = r
		}
		if !nearer(r.distance, farthest.distance) {
			farthest = r
		}
	}
	return closest, farthest
}

// MeasureDistances pings every registered broker's UDP endpoint and records
// the RTTs the closest/farthest injection policy relies on: "This information
// could easily be constructed by issuing ping request to brokers and
// computing the delays from the issued responses."
func (d *BDN) MeasureDistances() map[string]time.Duration {
	live := d.live()
	addrs := make([]string, len(live))
	for i := range live {
		addrs[i] = live[i].ad.Broker.Endpoint("udp")
	}

	// One ping per broker, no trace context: this is not part of a request.
	rtts := core.MeasureRTT(d.udp, d.node.Clock(), d.cfg.Name, "", addrs, 1, pingWindow)

	results := make(map[string]time.Duration, len(rtts))
	d.mu.Lock()
	for i, rtt := range rtts {
		if rtt.Count == 0 {
			continue
		}
		logical := live[i].ad.Broker.LogicalAddress
		results[logical] = rtt.Mean
		if r, ok := d.brokers[logical]; ok {
			r.distance = rtt.Mean
		}
	}
	d.mu.Unlock()
	return results
}

// SubscribeViaBroker attaches the BDN to the broker network as a client of
// the given broker and subscribes to the public advertisement topic, so
// advertisements published anywhere in the network reach this BDN
// (paper §2.3's second dissemination form).
func (d *BDN) SubscribeViaBroker(brokerAddr string) error {
	conn, err := d.node.Dial(brokerAddr)
	if err != nil {
		return err
	}
	sub := event.New(event.TypeSubscribe, topics.AdvertisementTopic, nil)
	sub.Source = d.cfg.Name
	if err := conn.Send(event.Encode(sub)); err != nil {
		_ = conn.Close()
		return err
	}
	served := d.serve(conn, func() string {
		for {
			frame, err := conn.Recv()
			if err != nil {
				return ""
			}
			ev, err := event.Decode(frame)
			if err != nil {
				d.tel.framesMalformed.Inc()
				continue
			}
			if ev.Type == event.TypePublish && ev.Topic == topics.AdvertisementTopic {
				d.storeAdvertisement(ev, nil)
			}
		}
	})
	if !served {
		return errors.New("bdn: closed")
	}
	return nil
}
