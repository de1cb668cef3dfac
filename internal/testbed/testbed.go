// Package testbed assembles complete discovery deployments on the simulated
// paper WAN: a network, a BDN, a set of brokers wired into a chosen topology,
// and discovery clients — everything the experiments and integration tests
// need to rerun the paper's evaluation.
package testbed

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/simnet"
	"narada/internal/topology"
	"narada/internal/transport"
	"narada/internal/wal"
)

// MulticastGroup is the discovery multicast group used across the testbed.
const MulticastGroup = "narada/discovery"

const mib = 1024 * 1024

// bdnPort is the stream port of every BDN of a Replicate deployment, so that
// each member's peer list is known before any member starts.
const bdnPort = 7000

// BrokerSpec describes one broker to deploy.
type BrokerSpec struct {
	Site       string        // simulator site
	Name       string        // logical address
	Usage      metrics.Usage // initial load profile (zero = sensible default)
	Register   bool          // register with the BDN at start-up
	Processing time.Duration // per-request handling cost
	// ClockSkew fixes this broker's hardware-clock skew instead of drawing
	// randomly within MaxSkew (0 = random) — clock-drift fault injection.
	ClockSkew time.Duration
}

// Options configures a testbed deployment.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Loss is the default inter-site datagram loss probability.
	Loss float64
	// DuplicateProb is the probability an inter-site datagram is delivered
	// twice (dedup robustness scenarios).
	DuplicateProb float64
	// Topology names the broker wiring (topology package constants).
	Topology string
	// Brokers lists the brokers to deploy; nil deploys the paper's five
	// (one per Table 1 machine), all registered.
	Brokers []BrokerSpec
	// BDNCount deploys that many BDNs (default 1): the first at Bloomington
	// (as in the paper), the rest spread over the other sites — the paper's
	// gridservicelocator.org/.com/.net/.info replication. Brokers register
	// with every BDN; discovery clients receive all addresses in order.
	BDNCount int
	// NoBDN deploys no BDN at all (multicast-only and cached-set scenarios).
	NoBDN bool
	// InjectPolicy selects the BDN's injection strategy. The zero value is
	// InjectAll (the unconnected-topology behaviour); connected topologies
	// usually want bdn.InjectClosestFarthest.
	InjectPolicy bdn.InjectionPolicy
	// InjectOverhead is the BDN's per-injection cost (default 40 ms).
	InjectOverhead time.Duration
	// Multicast joins every broker to the discovery multicast group.
	Multicast bool
	// BrokerProcessing is the default per-request handling cost for brokers
	// whose spec leaves Processing zero.
	BrokerProcessing time.Duration
	// Policy, when set, is the response policy installed on every broker
	// (nil leaves the open default).
	Policy *core.ResponsePolicy
	// Routing selects the broker network's dissemination mode for
	// application events (flooding by default).
	Routing broker.RoutingMode
	// Supervise makes every broker's links and BDN registrations
	// self-healing (see broker.Config.Supervise).
	Supervise bool
	// Heartbeat is the brokers' link keepalive interval (0 disables).
	Heartbeat time.Duration
	// AdvertiseInterval is the brokers' registration refresh period
	// (0 disables periodic re-advertisement); advertisements are then valid
	// for three periods.
	AdvertiseInterval time.Duration
	// SweepInterval is the BDNs' expired-registration sweep period.
	SweepInterval time.Duration
	// BDNDataDir, when set, makes every deployed BDN durable: each gets a
	// WAL + snapshot directory under this base (per-BDN subdirectory), so
	// a RestartBDN recovers the registration table instead of starting
	// empty. Fsync is disabled: on the wall clock its cost would be model time.
	BDNDataDir string
	// Replicate makes the deployed BDNs one set: each lists the others in
	// bdn.Config.Peers and pulls their live tables.
	Replicate bool
	// MaxSkew bounds each node's hardware clock error (default 20 ms).
	MaxSkew time.Duration
	// Watch, when set, runs every deployed component under its own
	// telemetry plane — registry, tracer and journal — and hands each plane
	// to Watch (a collector's WatchPlane), so the deployment behaves like
	// separate processes whose telemetry meets only at the collector. The
	// stop it returns is called, for the final scrape, when the node is
	// killed or the testbed closes. Without Watch nothing is recorded.
	Watch func(*plane.Plane) (stop func())
	// SampleEvery, when > 0, gives every broker a publish sampler tracing
	// roughly 1 in N messages originating at it (decision-at-publish; events
	// arriving over links keep the origin's verdict).
	SampleEvery uint64
}

func (o *Options) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Topology == "" {
		o.Topology = topology.Unconnected
	}
	if o.InjectOverhead == 0 {
		o.InjectOverhead = bdn.DefaultInjectOverhead
	}
	if o.BrokerProcessing == 0 {
		o.BrokerProcessing = 2 * time.Millisecond
	}
	if o.MaxSkew == 0 {
		o.MaxSkew = 20 * time.Millisecond
	}
	if o.Brokers == nil {
		o.Brokers = PaperBrokers()
	}
}

// PaperBrokers returns the five Table 1 brokers, registered, with modestly
// varied load profiles.
func PaperBrokers() []BrokerSpec {
	sites := simnet.PaperSiteNames()[1:] // every site but the client's Bloomington
	specs := make([]BrokerSpec, len(sites))
	for i, site := range sites {
		specs[i] = BrokerSpec{
			Site: site,
			Name: fmt.Sprintf("broker-%s", site),
			Usage: metrics.Usage{
				TotalMemBytes: 512 * mib,
				UsedMemBytes:  uint64(64+32*i) * mib,
				CPULoad:       0.05 * float64(i),
			},
			Register: true,
		}
	}
	return specs
}

// Testbed is a deployed discovery environment.
type Testbed struct {
	Net     *simnet.Network
	BDN     *bdn.BDN   // the first deployed BDN (nil with NoBDN)
	BDNs    []*bdn.BDN // all deployed BDNs, first-deployed first
	Brokers []*broker.Broker
	Edges   []topology.Edge

	discoverers []*core.Discoverer // handed out by NewDiscoverer; Close releases what they hold

	opts      Options
	rng       *rand.Rand
	ntpByName map[string]*ntptime.Service // every node's time service, for NTPOffset
	planes    map[string]watched          // per-node telemetry planes when Watch is set

	// journal records testbed-level control-plane events (chaos fault
	// injection) under the node identity "testbed" when Watch is set, so a
	// collector's timeline shows the faults beside their consequences.
	journal *obs.Journal

	// Deployment records let chaos schedules restart a killed component on
	// the same node with the same ports, so supervised peers find it again.
	brokerDeps map[string]*brokerDeployment
	bdnDeps    map[string]*bdnDeployment

	probeSeq int // chaos probe topic/client uniquifier
}

// watched is a node's plane and the stop its Watch returned (nil until the
// node is watched).
type watched struct {
	p    *plane.Plane
	stop func()
}

// brokerDeployment remembers how a broker was deployed.
type brokerDeployment struct {
	spec BrokerSpec
	node *transport.SimNode
	ntp  *ntptime.Service
	cfg  broker.Config // Handle and ports as of the last (re)start
}

// bdnDeployment remembers how a BDN was deployed.
type bdnDeployment struct {
	node *transport.SimNode
	ntp  *ntptime.Service
	cfg  bdn.Config // Handle and ports as of the last (re)start
}

// New builds and starts a testbed.
func New(opts Options) (*Testbed, error) {
	opts.fillDefaults()
	net := simnet.NewPaperWAN(simnet.Config{
		Seed:          opts.Seed,
		DefaultLoss:   opts.Loss,
		DuplicateProb: opts.DuplicateProb,
	})
	tb := &Testbed{
		Net:        net,
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed + 7)),
		ntpByName:  make(map[string]*ntptime.Service),
		planes:     make(map[string]watched),
		brokerDeps: make(map[string]*brokerDeployment),
		bdnDeps:    make(map[string]*bdnDeployment),
	}

	if opts.Watch != nil {
		// The schedule driver serves its own journal: fault injections are
		// control-plane events too. The model clock is the true timeline, so
		// no offset correction applies. It is not a node with metrics of its
		// own, so it lends its plane a registry nobody reads: a borrowed
		// registry is never scraped, and only the journal travels.
		tb.journal = tb.startPlane(plane.Config{
			Node:     "testbed",
			Clock:    net.Clock().Now,
			Registry: obs.NewRegistry(),
		}).Journal
		tb.watch("testbed")
	}

	// BDNs: gridservicelocator.org at the primary site, further replicas
	// (.com, .net, .info) spread across the WAN.
	if !opts.NoBDN {
		if opts.BDNCount <= 0 {
			opts.BDNCount = 1
		}
		tlds := []string{"org", "com", "net", "info"}
		sites := simnet.PaperSiteNames() // Bloomington first, as in the paper
		members := make([]string, opts.BDNCount)
		for i := range members {
			members[i] = transport.FormatSimAddr(simnet.Addr{
				Site: sites[i%len(sites)], Host: fmt.Sprintf("bdn%d", i), Port: bdnPort})
		}
		for i := 0; i < opts.BDNCount; i++ {
			node, ntp := tb.newNode(sites[i%len(sites)], fmt.Sprintf("bdn%d", i), 0)
			name := "gridservicelocator." + tlds[i%len(tlds)]
			dcfg := bdn.Config{
				Name:           name,
				Policy:         opts.InjectPolicy,
				InjectOverhead: opts.InjectOverhead,
				SweepInterval:  opts.SweepInterval,
			}
			if opts.Replicate {
				dcfg.StreamPort = bdnPort
				dcfg.Peers = append(append([]string(nil), members[:i]...), members[i+1:]...)
			}
			if opts.BDNDataDir != "" {
				dcfg.DataDir = filepath.Join(opts.BDNDataDir, name)
				dcfg.Fsync = wal.SyncNever
			}
			tb.bdnDeps[name] = &bdnDeployment{node: node, ntp: ntp, cfg: dcfg}
			if _, err := tb.startBDN(name); err != nil {
				tb.Close()
				return nil, err
			}
		}
	}

	// Brokers.
	for _, spec := range opts.Brokers {
		proc := spec.Processing
		if proc == 0 {
			proc = opts.BrokerProcessing
		}
		usage := spec.Usage
		if usage.TotalMemBytes == 0 {
			usage.TotalMemBytes = 512 * mib
			usage.UsedMemBytes = 64 * mib
		}
		node, ntp := tb.newNode(spec.Site, spec.Name, spec.ClockSkew)
		cfg := broker.Config{
			LogicalAddress:  spec.Name,
			Hostname:        spec.Name + "." + spec.Site,
			Realm:           spec.Site,
			Sampler:         metrics.NewStaticSampler(usage),
			ProcessingDelay: proc,
		}
		if opts.SampleEvery > 0 {
			cfg.PublishSampler = obs.NewSampler(opts.SampleEvery, 0)
		}
		if opts.Multicast {
			cfg.MulticastGroup = MulticastGroup
		}
		if opts.Policy != nil {
			cfg.Policy = *opts.Policy
		}
		cfg.Routing = opts.Routing
		cfg.Supervise = opts.Supervise
		cfg.HeartbeatInterval = opts.Heartbeat
		cfg.AdvertiseInterval = opts.AdvertiseInterval
		tb.brokerDeps[spec.Name] = &brokerDeployment{spec: spec, node: node, ntp: ntp, cfg: cfg}
		if _, err := tb.startBroker(spec.Name); err != nil {
			tb.Close()
			return nil, err
		}
	}

	// Topology.
	build, err := topology.ByName(opts.Topology)
	if err != nil {
		tb.Close()
		return nil, err
	}
	edges, err := build(tb.Brokers)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Edges = edges

	// Ready is a state (every edge up both ways, every registering broker listed
	// by every BDN), not a wait; then distances for closest/farthest injection.
	if err := tb.settle(); err != nil {
		tb.Close()
		return nil, err
	}
	for _, d := range tb.BDNs {
		d.MeasureDistances()
	}
	return tb, nil
}

// settle polls convergenceError each millisecond of model time, after quiesce
// (so in a bubble a seed settles at one instant), and fails after 10 s with
// the invariant still unmet.
func (tb *Testbed) settle() error {
	const limit = 10 * time.Second
	for deadline := time.Now().Add(limit); ; time.Sleep(time.Millisecond) {
		quiesce()
		err := tb.convergenceError()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("testbed: deployment not settled after %v: %w", limit, err)
		}
	}
}

// quiesce returns once every goroutine has blocked at this instant when built
// with GOEXPERIMENT=synctest (settle_exact.go), and at once otherwise.
var quiesce = func() {}

// obsFor returns the telemetry handle a component named name should use.
// Without Watch it is the zero handle: nothing records, as no collector
// reads. With Watch each component runs under its own plane — private
// registry, tracer and journal, offset by its NTP service — the same shape
// as one process per node. Journal events are stamped on the node's local
// (skewed) clock, like spans, so the collector's offset alignment applies to
// both.
func (tb *Testbed) obsFor(name string, ntp *ntptime.Service) obs.Handle {
	if tb.opts.Watch == nil {
		return obs.Handle{}
	}
	return tb.startPlane(plane.Config{Node: name, Offset: ntp.Offset, Clock: ntp.Local().Now})
}

// startPlane starts one node's plane and keeps it for Close (or a Kill of
// that node) to stop and tear down. Testbed nodes share one OS process, so
// their planes are embedded: no process metrics, no logger to configure, and
// so no error from Start.
func (tb *Testbed) startPlane(cfg plane.Config) obs.Handle {
	cfg.Embedded = true
	p, _ := plane.Start(cfg)
	tb.planes[cfg.Node] = watched{p: p}
	return p.Handle()
}

// watch hands the named node's plane to Watch, once the node has started:
// the first scrape runs at once, and so carries what the start journaled
// (node_start) rather than racing it. A node without a plane is not watched.
func (tb *Testbed) watch(name string) {
	if w, ok := tb.planes[name]; ok && w.stop == nil {
		w.stop = tb.opts.Watch(w.p)
		tb.planes[name] = w
	}
}

// closePlane takes the named node's final scrape and closes its plane.
func (tb *Testbed) closePlane(name string) {
	if w, ok := tb.planes[name]; ok {
		if w.stop != nil {
			w.stop()
		}
		w.p.Close()
		delete(tb.planes, name)
	}
}

// newNode creates a transport node and a synchronized NTP service for it.
// skew pins the node's hardware-clock error (fault injection for clock-drift
// scenarios); 0 draws one within MaxSkew.
func (tb *Testbed) newNode(site, host string, skew time.Duration) (*transport.SimNode, *ntptime.Service) {
	if skew == 0 {
		skew = tb.Net.RandomSkew(tb.opts.MaxSkew)
	}
	node := transport.NewSimNode(tb.Net, site, host, skew)
	ntp := ntptime.NewService(node.Clock(), skew, tb.rng)
	ntp.InitImmediately()
	tb.ntpByName[host] = ntp
	return node, ntp
}

// NTPOffset returns the named node's current NTP offset estimate (what its
// scrapes carry) — tests assert fault-injection preconditions through this.
func (tb *Testbed) NTPOffset(name string) (time.Duration, bool) {
	ntp, ok := tb.ntpByName[name]
	if !ok {
		return 0, false
	}
	return ntp.Offset(), true
}

// NewDiscoverer creates a discovery client at the given site. The supplied
// config's zero fields are filled with defaults wired to this testbed (BDN
// address, multicast group, realm).
func (tb *Testbed) NewDiscoverer(site, name string, cfg core.Config) *core.Discoverer {
	node, ntp := tb.newNode(site, name, 0)
	if cfg.NodeName == "" {
		cfg.NodeName = name
	}
	if cfg.Realm == "" {
		cfg.Realm = site
	}
	if cfg.BDNAddrs == nil {
		for _, d := range tb.BDNs {
			cfg.BDNAddrs = append(cfg.BDNAddrs, d.Addr())
		}
	}
	if cfg.MulticastGroup == "" && tb.opts.Multicast {
		cfg.MulticastGroup = MulticastGroup
	}
	if cfg.Metrics == nil && cfg.Tracer == nil {
		cfg.Handle = tb.obsFor(cfg.NodeName, ntp)
	}
	d := core.NewDiscoverer(node, ntp, cfg)
	tb.watch(cfg.NodeName)
	tb.discoverers = append(tb.discoverers, d)
	return d
}

// ClientNode creates a plain transport node at a site (for broker.Connect).
func (tb *Testbed) ClientNode(site, name string) *transport.SimNode {
	node, _ := tb.newNode(site, name, 0)
	return node
}

// BrokerByName returns the deployed broker with the given logical address.
func (tb *Testbed) BrokerByName(name string) *broker.Broker {
	for _, b := range tb.Brokers {
		if b.LogicalAddress() == name {
			return b
		}
	}
	return nil
}

// BrokerRegistry returns the private metric registry of a deployed broker
// (only when Watch is set). Fault-injection tests write synthetic runtime
// gauges into it — the testbed shares one OS process, so per-node "process"
// metrics must be injected rather than sampled.
func (tb *Testbed) BrokerRegistry(name string) (*obs.Registry, bool) {
	dep, ok := tb.brokerDeps[name]
	if !ok || dep.cfg.Metrics == nil {
		return nil, false
	}
	return dep.cfg.Metrics, true
}

// KillBroker abruptly removes the named broker from the fabric: the broker
// stops and its plane goes with it, like a crashed process — the collector
// takes the node's final scrape and hears nothing further from it (deadman
// fault injection). Returns false if no such broker is deployed.
func (tb *Testbed) KillBroker(name string) bool {
	for i, b := range tb.Brokers {
		if b.LogicalAddress() != name {
			continue
		}
		b.Close()
		tb.Brokers = append(tb.Brokers[:i], tb.Brokers[i+1:]...)
		tb.closePlane(name)
		return true
	}
	return false
}

// startBroker starts the broker its deployment record describes — under a
// fresh telemetry handle, on the ports it bound last time (any port the first
// time) — and registers it with every live BDN when its spec asks. The record
// keeps the handle and the ports, so a chaos schedule can restart the broker
// at the same address after a kill.
func (tb *Testbed) startBroker(name string) (*broker.Broker, error) {
	dep := tb.brokerDeps[name]
	dep.cfg.Handle = tb.obsFor(name, dep.ntp)
	b, err := broker.New(dep.node, dep.ntp, dep.cfg)
	if err != nil {
		return nil, fmt.Errorf("testbed: starting %s: %w", name, err)
	}
	tb.planes[name].p.SetFlows(b.Flows)
	if err := b.Start(); err != nil {
		return nil, fmt.Errorf("testbed: starting %s: %w", name, err)
	}
	tb.watch(name)
	tb.Brokers = append(tb.Brokers, b)
	dep.cfg.StreamPort, dep.cfg.UDPPort = simPort(b.StreamAddr()), simPort(b.UDPAddr())
	if dep.spec.Register {
		for _, d := range tb.BDNs {
			if err := b.RegisterWithBDN(d.Addr()); err != nil {
				return nil, fmt.Errorf("testbed: registering %s: %w", name, err)
			}
		}
	}
	return b, nil
}

// startBDN is startBroker for discovery nodes.
func (tb *Testbed) startBDN(name string) (*bdn.BDN, error) {
	dep := tb.bdnDeps[name]
	dep.cfg.Handle = tb.obsFor(name, dep.ntp)
	d, err := bdn.New(dep.node, dep.ntp, dep.cfg)
	if err != nil {
		return nil, fmt.Errorf("testbed: starting bdn %s: %w", name, err)
	}
	if err := d.Start(); err != nil {
		return nil, fmt.Errorf("testbed: starting bdn %s: %w", name, err)
	}
	tb.watch(name)
	tb.BDNs = append(tb.BDNs, d)
	tb.BDN = tb.BDNs[0]
	dep.cfg.StreamPort, dep.cfg.UDPPort = simPort(d.Addr()), simPort(d.UDPAddr())
	return d, nil
}

// simPort extracts the port of a simulator address (0 if it does not parse).
func simPort(addr string) int {
	a, err := transport.ParseSimAddr(addr)
	if err != nil {
		return 0
	}
	return a.Port
}

// RestartBroker brings a previously killed broker back on the SAME node with
// the SAME ports, so surviving supervised peers reconnect to it without any
// configuration change — exactly like a crashed process being restarted by an
// init system. The broker re-registers with every live BDN (when its spec
// asked for registration) and re-dials its own outgoing topology edges;
// inbound edges heal from the other side via supervision.
func (tb *Testbed) RestartBroker(name string) error {
	if _, ok := tb.brokerDeps[name]; !ok {
		return fmt.Errorf("testbed: no deployment record for broker %s", name)
	}
	if tb.BrokerByName(name) != nil {
		return fmt.Errorf("testbed: broker %s is still running", name)
	}
	b, err := tb.startBroker(name)
	if err != nil {
		return err
	}
	for _, e := range tb.Edges {
		if e.From != name {
			continue
		}
		peer := tb.BrokerByName(e.To)
		if peer == nil {
			continue
		}
		if err := b.LinkTo(peer.StreamAddr()); err != nil {
			return fmt.Errorf("testbed: relinking %s->%s: %w", name, e.To, err)
		}
	}
	return nil
}

// BDNByName returns the deployed BDN with the given name, or nil.
func (tb *Testbed) BDNByName(name string) *bdn.BDN {
	for _, d := range tb.BDNs {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// KillBDN abruptly removes the named BDN — its stored registrations die with
// it, exactly like a crashed discovery-node process. Returns false if no such
// BDN is deployed.
func (tb *Testbed) KillBDN(name string) bool {
	for i, d := range tb.BDNs {
		if d.Name() != name {
			continue
		}
		d.Close()
		tb.BDNs = append(tb.BDNs[:i], tb.BDNs[i+1:]...)
		tb.closePlane(name)
		if len(tb.BDNs) > 0 {
			tb.BDN = tb.BDNs[0]
		} else {
			tb.BDN = nil
		}
		return true
	}
	return false
}

// RestartBDN brings a previously killed BDN back on the SAME node with the
// SAME ports. Without a data dir it comes back empty and registrations
// repopulate from the brokers' own supervision (re-registration on
// reconnect) and periodic advertisement refresh; with BDNDataDir it
// recovers the full table from its snapshot + WAL first. A member of a
// Replicate set also pulls from its peers what it missed while down.
func (tb *Testbed) RestartBDN(name string) error {
	if _, ok := tb.bdnDeps[name]; !ok {
		return fmt.Errorf("testbed: no deployment record for bdn %s", name)
	}
	if tb.BDNByName(name) != nil {
		return fmt.Errorf("testbed: bdn %s is still running", name)
	}
	_, err := tb.startBDN(name)
	return err
}

// Close tears the deployment down. Per-node planes are closed last, so a
// watching collector takes every component's final spans and metric
// snapshot.
func (tb *Testbed) Close() {
	for _, d := range tb.discoverers {
		d.Close()
	}
	for _, b := range tb.Brokers {
		b.Close()
	}
	for _, d := range tb.BDNs {
		d.Close()
	}
	for name := range tb.planes {
		tb.closePlane(name)
	}
}
