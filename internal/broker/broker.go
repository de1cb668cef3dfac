// Package broker implements a NaradaBrokering-style publish/subscribe broker:
// it accepts client connections, manages subscriptions, routes published
// events to local subscribers and across broker-to-broker links (flooding
// with duplicate suppression and TTL), answers UDP pings, and processes
// broker discovery requests according to its response policy — constructing
// UDP discovery responses carrying NTP timestamps, process information and
// usage metrics (paper §4–5).
package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"narada/internal/core"
	"narada/internal/dedup"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/topics"
	"narada/internal/transport"
)

// errClosed reports an operation attempted on a closed broker.
var errClosed = errors.New("broker: closed")

// roleBDN is the role of a link to a broker discovery node. A link to
// another broker has the role its hello states, event.RoleLink.
const roleBDN = "bdn"

// Config parameterises a Broker.
type Config struct {
	// LogicalAddress is the broker's unique NB logical address.
	LogicalAddress string
	// Hostname is the broker machine's name (advertised).
	Hostname string
	// Realm is the broker's network realm (site).
	Realm string
	// Geo and Institution are optional advertisement fields.
	Geo         string
	Institution string
	// StreamPort / UDPPort bind the broker's endpoints (0 = auto).
	StreamPort int
	UDPPort    int
	// DedupCapacity sizes the discovery-request duplicate cache
	// (paper default 1000, "configured through the broker configuration
	// file").
	DedupCapacity int
	// Policy gates discovery responses.
	Policy core.ResponsePolicy
	// Sampler supplies usage metrics; nil uses a runtime sampler.
	Sampler metrics.Sampler
	// MulticastGroup, when set, is joined so BDN-less multicast discovery
	// requests reach this broker directly.
	MulticastGroup string
	// ProcessingDelay simulates per-request handling cost at the broker.
	ProcessingDelay time.Duration
	// HeartbeatInterval enables link keepalives: each link sends a
	// heartbeat every interval and is torn down after three silent
	// intervals, so the fluid broker network ("broker processes may join
	// and leave at arbitrary times") sheds dead links. 0 disables.
	// Applies to broker-to-broker links and to BDN registration links.
	HeartbeatInterval time.Duration
	// Supervise makes LinkTo and RegisterWithBDN self-healing: a torn-down
	// link or dead BDN registration is redialed on a fixed backoff ladder
	// until Close, with interest resync and re-advertisement on every
	// successful relink. Without it each relationship is dialled once.
	Supervise bool
	// AdvertiseInterval re-sends this broker's advertisement over every BDN
	// registration link on the interval, refreshing the registration before
	// its TTL lapses. Advertisements are valid for three intervals; 0
	// disables periodic refresh, and they never expire.
	AdvertiseInterval time.Duration
	// Routing selects how publish events cross links; discovery requests
	// are always flooded (control traffic must reach every broker).
	Routing RoutingMode
	// Handle is where the broker reports: operational logs, its metric
	// families (labelled with its logical address), discovery and
	// message-path spans, and control-plane journal events (node and link
	// lifecycle, advertisement refreshes, reconnect attempts — never on the
	// publish fast path). The zero value is usable; see obs.Handle.
	obs.Handle
	// PublishSampler decides, at publish ingress, which messages get full
	// message-path tracing (publish→match→flush→hop spans stamped into the
	// event headers and followed across links). nil never samples; the
	// unsampled path stays allocation-free either way.
	PublishSampler *obs.Sampler
}

// RoutingMode selects the broker network's dissemination strategy for
// application events.
type RoutingMode int

// Routing modes.
const (
	// RouteFlood forwards every publish over every link (TTL + dedup
	// bounded). Simple, correct on any topology, wasteful on traffic.
	RouteFlood RoutingMode = iota
	// RouteSubscriptions propagates subscription interest between brokers
	// and forwards a publish over a link only when the peer's side of the
	// network registered a matching interest — NaradaBrokering's "routing
	// the right content from the producer to the right consumers".
	RouteSubscriptions
)

// Broker is one node of the distributed messaging substrate.
type Broker struct {
	node transport.Node
	ntp  *ntptime.Service
	cfg  Config

	listener transport.Listener
	udp      transport.PacketConn

	reqDedup *dedup.Cache // discovery request UUIDs
	evDedup  *dedup.Cache // flooded event UUIDs
	subs     *topics.Table
	interest *interestState // link interest refcounts (RouteSubscriptions)
	frames   *framePool     // ref-counted shared egress frames
	flows    *obs.FlowTable // per-topic flow accounting (top-k sketch)
	egTel    egressTel      // instruments shared by every egress queue

	// linkSnap is the publish path's view of the broker links (BDN-role
	// connections excluded): an immutable slice swapped atomically whenever
	// membership changes, so routing and discovery fan-out never take b.mu.
	linkSnap atomic.Pointer[[]*link]

	mu          sync.Mutex
	links       map[string]*link // peer logical address -> link
	clients     map[string]*clientConn
	supervisors map[string]*Supervisor // "link:addr"/"bdn:addr" -> relationship
	lastAd      map[string]time.Time   // BDN addr -> last successful advertise
	started     bool

	// tel holds the broker's metric handles and trace recorder; the
	// egress-drop counter and delivery counters it carries sit on the
	// publish fast path.
	tel telemetry

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// startEgress launches the writer goroutine draining q, tracked by the
// broker's waitgroup so Close waits for flushes.
func (b *Broker) startEgress(q *egress) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		q.run()
	}()
}

// EgressDropped returns the number of frames dropped at egress queues since
// the broker started, across every drop reason.
func (b *Broker) EgressDropped() uint64 {
	return b.tel.egressDropQueueFull.Value() +
		b.tel.egressDropConnDown.Value() +
		b.tel.egressDropTooLarge.Value()
}

// Flows snapshots the broker's per-topic flow accounting: the top-K
// published topics with delivered and dropped-by-reason tallies (plus the
// <other> fold bucket). Wire it into obs.ExporterConfig.Flows so the
// collector's /flows can assemble the fabric-wide view.
func (b *Broker) Flows() []obs.FlowSnapshot { return b.flows.Snapshot() }

// linkSetter is satisfied by samplers that track the live connection count.
type linkSetter interface{ SetLinks(int) }

// New creates a broker; call Start to begin serving.
func New(node transport.Node, ntp *ntptime.Service, cfg Config) (*Broker, error) {
	if cfg.LogicalAddress == "" {
		return nil, errors.New("broker: LogicalAddress is required")
	}
	if cfg.DedupCapacity <= 0 {
		cfg.DedupCapacity = dedup.DefaultCapacity
	}
	if cfg.Sampler == nil {
		cfg.Sampler = metrics.NewRuntimeSampler()
	}
	cfg.Handle = cfg.Handle.Scoped("broker", cfg.LogicalAddress)
	b := &Broker{
		node:        node,
		ntp:         ntp,
		cfg:         cfg,
		reqDedup:    dedup.New(cfg.DedupCapacity),
		evDedup:     dedup.New(4 * cfg.DedupCapacity),
		subs:        topics.NewTable(),
		interest:    newInterestState(),
		links:       make(map[string]*link),
		clients:     make(map[string]*clientConn),
		supervisors: make(map[string]*Supervisor),
		lastAd:      make(map[string]time.Time),
		closed:      make(chan struct{}),
	}
	b.initTelemetry(cfg.Metrics, cfg.Tracer)
	b.frames = newFramePool(b.tel.framePoolHit, b.tel.framePoolMiss)
	b.flows = obs.NewFlowTable(obs.DefaultFlowK)
	b.egTel = egressTel{
		dropQueueFull: b.tel.egressDropQueueFull,
		dropConnDown:  b.tel.egressDropConnDown,
		dropTooLarge:  b.tel.egressDropTooLarge,
		perFlush:      b.tel.framesPerFlush,
		latency:       b.tel.deliveryLatency,
		tracer:        cfg.Tracer,
		now:           b.now,
	}
	b.linkSnap.Store(&[]*link{})
	return b, nil
}

// newEgress builds an egress queue wired to this broker's telemetry. dest
// ("local" or "link") labels the queue's spans with where its frames go.
func (b *Broker) newEgress(conn transport.Conn, dest string) *egress {
	return newEgress(conn, &b.egTel, dest)
}

// rebuildLinkSnap republishes the link snapshot from the authoritative map.
// Caller holds b.mu; readers pick up the new slice on their next load.
func (b *Broker) rebuildLinkSnap() {
	snap := make([]*link, 0, len(b.links))
	for _, lk := range b.links {
		if lk.role == roleBDN {
			continue
		}
		snap = append(snap, lk)
	}
	b.linkSnap.Store(&snap)
}

// Start binds the broker's endpoints and launches its service loops.
func (b *Broker) Start() error {
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return errors.New("broker: already started")
	}
	b.started = true
	b.mu.Unlock()

	l, err := b.node.Listen(b.cfg.StreamPort)
	if err != nil {
		return fmt.Errorf("broker %s: listen: %w", b.cfg.LogicalAddress, err)
	}
	pc, err := b.node.ListenPacket(b.cfg.UDPPort)
	if err != nil {
		_ = l.Close()
		return fmt.Errorf("broker %s: udp: %w", b.cfg.LogicalAddress, err)
	}
	b.listener, b.udp = l, pc
	b.cfg.Logger.Info("broker started", "stream", l.Addr(), "udp", pc.LocalAddr())
	b.cfg.Journal.Emit(obs.EventNodeStart, l.Addr(), "udp="+pc.LocalAddr())

	if b.cfg.MulticastGroup != "" {
		if err := pc.JoinGroup(b.cfg.MulticastGroup); err != nil {
			_ = l.Close()
			_ = pc.Close()
			return fmt.Errorf("broker %s: multicast: %w", b.cfg.LogicalAddress, err)
		}
	}

	b.wg.Add(2)
	go b.acceptLoop()
	go b.udpLoop()
	if b.cfg.AdvertiseInterval > 0 {
		b.wg.Add(1)
		go b.advertiseLoop()
	}
	return nil
}

// closeFlushTimeout bounds (in model time) how long Close waits for egress
// queues to flush before tearing connections down.
const closeFlushTimeout = 2 * time.Second

// Close stops the broker and tears down every connection. Egress queues are
// asked to flush first so frames already accepted for delivery reach live
// peers, then the connections are closed to unblock any stalled writer.
func (b *Broker) Close() {
	b.closeOnce.Do(func() {
		b.cfg.Journal.Emit(obs.EventNodeStop, b.cfg.LogicalAddress, "")
		// Closing b.closed stops every redial loop before the teardown below
		// ends the sessions they watch.
		close(b.closed)
		if b.listener != nil {
			_ = b.listener.Close()
		}
		if b.udp != nil {
			_ = b.udp.Close()
		}
		b.mu.Lock()
		links := make([]*link, 0, len(b.links))
		for _, lk := range b.links {
			links = append(links, lk)
		}
		clients := make([]*clientConn, 0, len(b.clients))
		for _, c := range b.clients {
			clients = append(clients, c)
		}
		b.mu.Unlock()
		queues := make([]*egress, 0, len(links)+len(clients))
		for _, lk := range links {
			if lk.out != nil {
				queues = append(queues, lk.out)
			}
		}
		for _, c := range clients {
			if c.out != nil {
				queues = append(queues, c.out)
			}
		}
		for _, q := range queues {
			q.close()
		}
		if len(queues) > 0 {
			expire := b.node.Clock().After(closeFlushTimeout)
			for _, q := range queues {
				select {
				case <-q.dead:
				case <-expire:
				}
			}
		}
		for _, lk := range links {
			_ = lk.conn.Close()
		}
		for _, c := range clients {
			_ = c.conn.Close()
		}
		b.wg.Wait()
	})
}

// LogicalAddress returns the broker's unique logical address.
func (b *Broker) LogicalAddress() string { return b.cfg.LogicalAddress }

// StreamAddr returns the broker's stream endpoint address.
func (b *Broker) StreamAddr() string { return b.listener.Addr() }

// UDPAddr returns the broker's datagram endpoint address.
func (b *Broker) UDPAddr() string { return b.udp.LocalAddr() }

// Info assembles the broker process information carried in advertisements
// and discovery responses.
func (b *Broker) Info() core.BrokerInfo {
	return core.BrokerInfo{
		LogicalAddress: b.cfg.LogicalAddress,
		Hostname:       b.cfg.Hostname,
		Realm:          b.cfg.Realm,
		Endpoints: []core.TransportEndpoint{
			{Protocol: "tcp", Address: b.StreamAddr()},
			{Protocol: "udp", Address: b.UDPAddr()},
		},
		Geo:         b.cfg.Geo,
		Institution: b.cfg.Institution,
	}
}

// Usage samples the broker's current usage metrics.
func (b *Broker) Usage() metrics.Usage { return b.cfg.Sampler.Sample() }

// LinkCount returns the number of active broker links.
func (b *Broker) LinkCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.links)
}

// Peers returns the logical addresses of the currently linked peers
// (broker links and BDN registrations), unsorted.
func (b *Broker) Peers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.links))
	for peer := range b.links {
		out = append(out, peer)
	}
	return out
}

// ClientCount returns the number of connected clients (including BDN
// subscriber connections).
func (b *Broker) ClientCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// registerLink adds a link to the routing fabric. It returns false when the
// broker is already closed — Close sweeps the link map, so a link landing
// after the sweep must tear itself down or Close's wg.Wait would hang on its
// goroutine. The closed-check and the map insert share the mutex, and Close
// closes the channel before taking the mutex, so no registration can slip
// past the sweep. A duplicate link to the same peer replaces the old one,
// whose connection is closed (returned) so its goroutine exits.
func (b *Broker) registerLink(lk *link) bool {
	b.mu.Lock()
	select {
	case <-b.closed:
		b.mu.Unlock()
		return false
	default:
	}
	old := b.links[lk.peer]
	b.links[lk.peer] = lk
	b.rebuildLinkSnap()
	b.mu.Unlock()
	if old != nil {
		_ = old.conn.Close()
	}
	return true
}

// registerClient mirrors registerLink for client sessions.
func (b *Broker) registerClient(c *clientConn) bool {
	b.mu.Lock()
	select {
	case <-b.closed:
		b.mu.Unlock()
		return false
	default:
	}
	old := b.clients[c.id]
	b.clients[c.id] = c
	b.mu.Unlock()
	if old != nil {
		_ = old.conn.Close()
	}
	return true
}

// connectionsChanged refreshes the sampler's link figure: "the total number
// of active concurrent connections to the broker".
func (b *Broker) connectionsChanged() {
	if s, ok := b.cfg.Sampler.(linkSetter); ok {
		b.mu.Lock()
		n := len(b.links) + len(b.clients)
		b.mu.Unlock()
		s.SetLinks(n)
	}
}

// now returns the broker's best-effort NTP UTC time.
func (b *Broker) now() time.Time {
	if t, err := b.ntp.UTC(); err == nil {
		return t
	}
	return b.node.Clock().Now()
}

// Publish injects an application event at this broker (local publish API):
// delivered to local subscribers and flooded over links.
func (b *Broker) Publish(topic string, payload []byte) error {
	if err := topics.Validate(topic); err != nil {
		return err
	}
	ev := event.New(event.TypePublish, topic, payload)
	ev.Source = b.cfg.LogicalAddress
	ev.Timestamp = b.now()
	b.publishEvent(ev, "")
	return nil
}
