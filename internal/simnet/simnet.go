// Package simnet is an in-process wide-area network simulator. It stands in
// for the paper's physical five-site testbed (Table 1): named sites joined by
// a configurable round-trip-time matrix, with datagram loss and duplication,
// realm-scoped multicast, site partitions and node failures. A path's delay is
// fixed (half its RTT plus serialisation) and there is no jitter. In a synctest
// bubble (the exact lane) a run is a function of its seed; on the wall clock,
// the host's scheduling adds its own delay to model time.
//
// Two delivery services are provided, mirroring the paper's transport usage:
//
//   - PacketConn: unreliable, unordered datagrams (UDP). Discovery responses
//     and pings travel this way, and the simulator's loss model reproduces
//     the paper's argument that lossy UDP naturally filters far-away brokers.
//   - Conn / Listener: reliable, ordered, connection-oriented message streams
//     (TCP with length-prefixed frames). Broker links, client connections
//     and BDN registrations travel this way.
//
// All latencies are expressed in model time: the paper's era plus the time
// since the network was made, which in a bubble is the bubble's clock.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"narada/internal/ntptime"
)

// Addr identifies a node endpoint within the simulated network.
type Addr struct {
	Site string // site (machine location) name, e.g. "cardiff"
	Host string // node name within the site
	Port int    // endpoint number within the node
}

// String renders the address as site/host:port.
func (a Addr) String() string { return fmt.Sprintf("%s/%s:%d", a.Site, a.Host, a.Port) }

// node returns the address with the port stripped (identifies the process).
func (a Addr) node() Addr { return Addr{Site: a.Site, Host: a.Host} }

// Errors returned by network operations.
var (
	ErrClosed      = errors.New("simnet: endpoint closed")
	ErrUnknownSite = errors.New("simnet: unknown site")
	ErrAddrInUse   = errors.New("simnet: address in use")
	ErrConnRefused = errors.New("simnet: connection refused")
	ErrNoRoute     = errors.New("simnet: no route (partitioned)")
	ErrNodeDown    = errors.New("simnet: node down")
	ErrTimeout     = errors.New("simnet: timeout")
)

// Site describes one location in the simulated WAN.
type Site struct {
	Name     string // short key, e.g. "fsu"
	Location string // human-readable, e.g. "Florida State University, Tallahassee, FL"
	Realm    string // multicast/administrative realm; multicast never crosses realms
}

// Config parameterises a Network.
type Config struct {
	// Seed drives all randomness (loss, duplication, skews); 0 means 1.
	Seed int64
	// DefaultLoss is the datagram loss probability applied to inter-site
	// paths with no explicit override. Same-site datagrams never use it.
	DefaultLoss float64
	// LocalRTT is the round-trip time between nodes of the same site;
	// 0 means 400 microseconds (a 2005-era LAN).
	LocalRTT time.Duration
	// BandwidthBps models per-path serialisation: every message adds
	// size/bandwidth to its one-way delay. 0 means infinite bandwidth.
	BandwidthBps float64
	// DuplicateProb is the probability an inter-site datagram is delivered
	// twice (real UDP duplicates under retransmitting middleboxes); the
	// protocol's dedup layers must absorb it.
	DuplicateProb float64
}

// epoch is the model time at creation: the paper's era.
var epoch = time.Date(2005, 7, 1, 0, 0, 0, 0, time.UTC)

type pathKey struct{ a, b string }

func orderedPath(a, b string) pathKey {
	if a > b {
		a, b = b, a
	}
	return pathKey{a, b}
}

type groupKey struct {
	realm string
	group string
}

// Network is the simulated WAN. All methods are safe for concurrent use.
type Network struct {
	clock     *ntptime.EpochClock
	localRTT  time.Duration
	defLoss   float64
	bandwidth float64
	dupProb   float64

	mu          sync.Mutex
	rng         *rand.Rand
	sites       map[string]Site
	rtt         map[pathKey]time.Duration
	loss        map[pathKey]float64
	partitioned map[pathKey]bool
	down        map[Addr]bool // keyed by node (port 0)
	packets     map[Addr]*PacketConn
	listeners   map[Addr]*Listener
	groups      map[groupKey]map[Addr]*PacketConn
	nextPort    int

	// Counters for experiment reporting.
	datagramsSent    uint64
	datagramsDropped uint64
	framesSent       uint64
}

// New creates an empty Network; add sites and RTTs before creating endpoints.
func New(cfg Config) *Network {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LocalRTT == 0 {
		cfg.LocalRTT = 400 * time.Microsecond
	}
	return &Network{
		clock:       ntptime.NewEpochClock(epoch),
		localRTT:    cfg.LocalRTT,
		defLoss:     cfg.DefaultLoss,
		bandwidth:   cfg.BandwidthBps,
		dupProb:     cfg.DuplicateProb,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		sites:       make(map[string]Site),
		rtt:         make(map[pathKey]time.Duration),
		loss:        make(map[pathKey]float64),
		partitioned: make(map[pathKey]bool),
		down:        make(map[Addr]bool),
		packets:     make(map[Addr]*PacketConn),
		listeners:   make(map[Addr]*Listener),
		groups:      make(map[groupKey]map[Addr]*PacketConn),
		nextPort:    10000,
	}
}

// Clock returns the network's model clock.
func (n *Network) Clock() ntptime.Clock { return n.clock }

// NodeClock returns a per-node clock skewed from the network clock by skew,
// modelling an unsynchronised hardware clock.
func (n *Network) NodeClock(skew time.Duration) ntptime.Clock {
	return ntptime.NewSkewedClock(n.clock, skew)
}

// RandomSkew draws a node clock skew uniformly from [-max, max].
func (n *Network) RandomSkew(max time.Duration) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Duration(n.rng.Int63n(int64(2*max+1))) - max
}

// AddSite registers a site.
func (n *Network) AddSite(s Site) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s.Realm == "" {
		s.Realm = s.Name
	}
	n.sites[s.Name] = s
}

// Sites returns all registered sites sorted by name.
func (n *Network) Sites() []Site {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Site, 0, len(n.sites))
	for _, s := range n.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetRTT sets the symmetric round-trip time between two sites.
func (n *Network) SetRTT(a, b string, rtt time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rtt[orderedPath(a, b)] = rtt
}

// RTT returns the configured RTT between two sites (LocalRTT when a == b,
// 0 and false when the pair has no configured path).
func (n *Network) RTT(a, b string) (time.Duration, bool) {
	if a == b {
		return n.localRTT, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.rtt[orderedPath(a, b)]
	return d, ok
}

// SetLoss overrides the datagram loss probability on one site pair.
func (n *Network) SetLoss(a, b string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss[orderedPath(a, b)] = p
}

// Partition cuts all traffic between two sites until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[orderedPath(a, b)] = true
}

// Heal restores traffic between two sites.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, orderedPath(a, b))
}

// SetNodeDown marks every endpoint of a node unreachable (crash-stop).
func (n *Network) SetNodeDown(site, host string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := Addr{Site: site, Host: host}
	if down {
		n.down[key] = true
	} else {
		delete(n.down, key)
	}
}

// AllocPort returns a fresh unused port number.
func (n *Network) AllocPort() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextPort++
	return n.nextPort
}

// Counters reports datagrams sent/dropped and stream frames sent since start.
func (n *Network) Counters() (datagramsSent, datagramsDropped, framesSent uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.datagramsSent, n.datagramsDropped, n.framesSent
}

// oneWay computes the one-way delay between two sites for a message of the
// given size — half the path's RTT plus serialisation — or an error if no path
// exists. Caller must not hold n.mu.
func (n *Network) oneWay(from, to string, size int) (time.Duration, error) {
	rtt, ok := n.RTT(from, to)
	if !ok {
		return 0, fmt.Errorf("%w: %s <-> %s", ErrUnknownSite, from, to)
	}
	d := rtt / 2
	if n.bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / n.bandwidth * float64(time.Second))
	}
	return d, nil
}

// pathBlocked reports whether traffic between the sites is cut or either
// endpoint's node is down. Caller must not hold n.mu.
func (n *Network) pathBlocked(from, to Addr) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned[orderedPath(from.Site, to.Site)] {
		return ErrNoRoute
	}
	if n.down[from.node()] || n.down[to.node()] {
		return ErrNodeDown
	}
	return nil
}

// lossProb returns the datagram loss probability for a path.
func (n *Network) lossProb(from, to string) float64 {
	if from == to {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.loss[orderedPath(from, to)]; ok {
		return p
	}
	return n.defLoss
}

func (n *Network) roll() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// checkSite validates that an address names a known site.
func (n *Network) checkSite(a Addr) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.sites[a.Site]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSite, a.Site)
	}
	return nil
}

// realmOf returns the multicast realm of a site.
func (n *Network) realmOf(site string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sites[site].Realm
}
