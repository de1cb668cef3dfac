//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package core

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// fakeBroker is a minimal scripted responder: it answers discovery requests
// arriving on its UDP endpoint and echoes pings, without the full broker
// machinery — letting these tests exercise the Discoverer in isolation.
type fakeBroker struct {
	name   string
	node   *transport.SimNode
	pc     transport.PacketConn
	usage  metrics.Usage
	mute   bool // do not answer discovery requests
	noPong bool // do not answer pings
}

func startFakeBroker(t *testing.T, net *simnet.Network, site, name string) *fakeBroker {
	t.Helper()
	node := transport.NewSimNode(net, site, name, 0)
	pc, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBroker{name: name, node: node, pc: pc,
		usage: metrics.Usage{TotalMemBytes: 1 << 29, UsedMemBytes: 1 << 26}}
	go f.serve()
	t.Cleanup(func() { _ = pc.Close() })
	return f
}

func (f *fakeBroker) info() BrokerInfo {
	return BrokerInfo{
		LogicalAddress: f.name,
		Realm:          f.node.Site(),
		Endpoints: []TransportEndpoint{
			{Protocol: "udp", Address: f.pc.LocalAddr()},
		},
	}
}

func (f *fakeBroker) serve() {
	for {
		payload, from, err := f.pc.Recv()
		if err != nil {
			return
		}
		ev, err := event.Decode(payload)
		if err != nil {
			continue
		}
		switch ev.Type {
		case event.TypeDiscoveryRequest:
			if f.mute {
				continue
			}
			req, err := DecodeDiscoveryRequest(ev.Payload)
			if err != nil {
				continue
			}
			resp := &DiscoveryResponse{
				RequestID: req.ID,
				Timestamp: f.node.Clock().Now(),
				Broker:    f.info(),
				Usage:     f.usage,
			}
			reply := event.New(event.TypeDiscoveryResponse, "", EncodeDiscoveryResponse(resp))
			_ = f.pc.Send(req.ResponseAddr, event.Encode(reply))
		case event.TypePing:
			if f.noPong {
				continue
			}
			ping, err := DecodePing(ev.Payload)
			if err != nil {
				continue
			}
			pong := &Pong{ID: ping.ID, EchoSent: ping.SentAt, Seq: ping.Seq, Responder: f.name}
			reply := event.New(event.TypePong, "", EncodePong(pong))
			_ = f.pc.Send(from, event.Encode(reply))
		}
	}
}

// silentBDN accepts request streams; it acks only after `ignoreFirst`
// requests have been swallowed, exercising the retransmission path.
type silentBDN struct {
	name        string
	listener    transport.Listener
	ignoreFirst int
	forwardTo   []*fakeBroker
}

func startSilentBDN(t *testing.T, net *simnet.Network, ignoreFirst int, brokers ...*fakeBroker) *silentBDN {
	t.Helper()
	node := transport.NewSimNode(net, simnet.SiteBloomington, "silent-bdn", 0)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	s := &silentBDN{name: "silent-bdn", listener: l, ignoreFirst: ignoreFirst, forwardTo: brokers}
	go s.serve(node)
	t.Cleanup(func() { _ = l.Close() })
	return s
}

func (s *silentBDN) serve(node *transport.SimNode) {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			swallowed := 0
			for {
				frame, err := conn.Recv()
				if err != nil {
					return
				}
				ev, err := event.Decode(frame)
				if err != nil || ev.Type != event.TypeDiscoveryRequest {
					continue
				}
				if swallowed < s.ignoreFirst {
					swallowed++
					continue
				}
				req, err := DecodeDiscoveryRequest(ev.Payload)
				if err != nil {
					continue
				}
				ack := event.New(event.TypeDiscoveryAck, "", EncodeAck(&Ack{RequestID: req.ID, BDN: s.name}))
				_ = conn.Send(event.Encode(ack))
				// Forward over UDP to the fake brokers.
				pc, err := node.ListenPacket(0)
				if err != nil {
					continue
				}
				for _, b := range s.forwardTo {
					_ = pc.Send(b.pc.LocalAddr(), frame)
				}
				_ = pc.Close()
			}
		}()
	}
}

func newDiscoverer(t *testing.T, net *simnet.Network, cfg Config) *Discoverer {
	t.Helper()
	node := transport.NewSimNode(net, simnet.SiteBloomington, "client-"+uuid.New().String()[:8], 0)
	ntp := ntptime.NewService(node.Clock(), 0, rand.New(rand.NewSource(1)))
	ntp.InitImmediately()
	d := NewDiscoverer(node, ntp, cfg)
	t.Cleanup(d.Close)
	return d
}

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the network's, so a model-time wait takes exactly its length and
// a run is a function of its seed. f runs as a subtest, so the cleanups it
// registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

func laneNet(seed int64) *simnet.Network {
	return simnet.NewPaperWAN(simnet.Config{Seed: seed})
}

// phases lists res's phase durations in Phases() order.
func phases(res *Result) []time.Duration {
	var out []time.Duration
	for _, p := range Phases() {
		out = append(out, res.Timing.Get(p))
	}
	return out
}

func TestDiscoverRetransmitsUntilAck(t *testing.T) {
	exact(t, func(t *testing.T) {
		net := laneNet(1)
		b := startFakeBroker(t, net, simnet.SiteIndianapolis, "fb1")
		bdn := startSilentBDN(t, net, 2, b) // swallow 2 sends, ack the 3rd

		cfg := Config{
			BDNAddrs:       []string{bdn.listener.Addr()},
			CollectWindow:  800 * time.Millisecond,
			MaxResponses:   1,
			AckTimeout:     200 * time.Millisecond,
			MaxRetransmits: 3,
			PingWindow:     400 * time.Millisecond,
		}
		d := newDiscoverer(t, net, cfg)
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := phases(res), []time.Duration{401 * time.Millisecond, 2800 * time.Microsecond, 0, 3 * time.Millisecond, 0}; !slices.Equal(got, want) {
			t.Errorf("phases = %#v, want %v", got, want)
		}
		if res.Retransmits != 2 {
			t.Fatalf("retransmits = %d, want 2", res.Retransmits)
		}
		if res.Selected.LogicalAddress != "fb1" {
			t.Fatalf("selected %s", res.Selected.LogicalAddress)
		}
	})
}

func TestDiscoverGivesUpAfterMaxRetransmits(t *testing.T) {
	exact(t, func(t *testing.T) {
		net := laneNet(2)
		b := startFakeBroker(t, net, simnet.SiteIndianapolis, "fb1")
		bdn := startSilentBDN(t, net, 100, b) // never acks

		cfg := Config{
			BDNAddrs:       []string{bdn.listener.Addr()},
			CollectWindow:  300 * time.Millisecond,
			AckTimeout:     150 * time.Millisecond,
			MaxRetransmits: 2,
		}
		d := newDiscoverer(t, net, cfg)
		start := time.Now()
		if _, err := d.Discover(); !errors.Is(err, ErrNoPath) {
			t.Fatalf("err = %v, want ErrNoPath", err)
		}
		if got, want := time.Since(start), 450600*time.Microsecond; got != want {
			t.Errorf("gave up after %v, want %v", got, want)
		}
	})
}

func TestDiscoverSeededTargetSet(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A node can be primed with a persisted target set and discover with no
		// BDN and no multicast at all.
		net := laneNet(3)
		b1 := startFakeBroker(t, net, simnet.SiteIndianapolis, "fb1")
		b2 := startFakeBroker(t, net, simnet.SiteCardiff, "fb2")

		cfg := Config{
			CollectWindow: 800 * time.Millisecond,
			MaxResponses:  2,
			PingWindow:    500 * time.Millisecond,
		}
		d := newDiscoverer(t, net, cfg)
		d.SeedTargetSet([]BrokerInfo{b1.info(), b2.info()})
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := phases(res), []time.Duration{0, 120 * time.Millisecond, 0, 120 * time.Millisecond, 0}; !slices.Equal(got, want) {
			t.Errorf("phases = %#v, want %v", got, want)
		}
		if res.Via != ViaCached {
			t.Fatalf("Via = %s", res.Via)
		}
		if res.Selected.LogicalAddress != "fb1" {
			t.Fatalf("selected %s, want the near broker", res.Selected.LogicalAddress)
		}
		if len(d.LastTargetSet()) == 0 {
			t.Fatal("target set not refreshed")
		}
	})
}

func TestDiscoverPonglessBrokerNotSelected(t *testing.T) {
	exact(t, func(t *testing.T) {
		// A broker that answers discovery but whose pings vanish must lose to a
		// pinging broker even if farther: "the response's arrival or the lack
		// thereof provides a good indicator".
		net := laneNet(4)
		ghost := startFakeBroker(t, net, simnet.SiteIndianapolis, "ghost")
		ghost.noPong = true
		real := startFakeBroker(t, net, simnet.SiteFSU, "real")

		cfg := Config{
			CollectWindow: 800 * time.Millisecond,
			MaxResponses:  2,
			PingWindow:    400 * time.Millisecond,
		}
		d := newDiscoverer(t, net, cfg)
		d.SeedTargetSet([]BrokerInfo{ghost.info(), real.info()})
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := phases(res), []time.Duration{0, 35 * time.Millisecond, 0, 400 * time.Millisecond, 0}; !slices.Equal(got, want) {
			t.Errorf("phases = %#v, want %v", got, want)
		}
		if !res.PingDecided {
			t.Fatal("expected a ping-driven decision")
		}
		if res.Selected.LogicalAddress != "real" {
			t.Fatalf("selected %s, want real", res.Selected.LogicalAddress)
		}
	})
}

func TestDiscoverAllPongless(t *testing.T) {
	exact(t, func(t *testing.T) {
		net := laneNet(5)
		b := startFakeBroker(t, net, simnet.SiteIndianapolis, "fb")
		b.noPong = true
		cfg := Config{
			CollectWindow: 500 * time.Millisecond,
			MaxResponses:  1,
			PingWindow:    300 * time.Millisecond,
		}
		d := newDiscoverer(t, net, cfg)
		d.SeedTargetSet([]BrokerInfo{b.info()})
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := phases(res), []time.Duration{0, 3 * time.Millisecond, 0, 300 * time.Millisecond, 0}; !slices.Equal(got, want) {
			t.Errorf("phases = %#v, want %v", got, want)
		}
		if res.PingDecided {
			t.Fatal("PingDecided true with no pongs")
		}
		if res.Selected.LogicalAddress != "fb" {
			t.Fatalf("selected %s", res.Selected.LogicalAddress)
		}
	})
}

func TestDiscoverNoResponses(t *testing.T) {
	exact(t, func(t *testing.T) {
		net := laneNet(6)
		mute := startFakeBroker(t, net, simnet.SiteIndianapolis, "mute")
		mute.mute = true
		cfg := Config{CollectWindow: 300 * time.Millisecond}
		d := newDiscoverer(t, net, cfg)
		d.SeedTargetSet([]BrokerInfo{mute.info()})
		start := time.Now()
		if _, err := d.Discover(); !errors.Is(err, ErrNoResponses) {
			t.Fatalf("err = %v, want ErrNoResponses", err)
		}
		if got, want := time.Since(start), 300*time.Millisecond; got != want {
			t.Errorf("gave up after %v, want %v", got, want)
		}
	})
}

func TestDiscoverWithUnsyncedNTP(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Before NTP init completes, discovery must still work (latency
		// estimates degrade; selection still ping-driven).
		net := laneNet(7)
		b := startFakeBroker(t, net, simnet.SiteIndianapolis, "fb")
		node := transport.NewSimNode(net, simnet.SiteBloomington, "unsynced", 0)
		ntp := ntptime.NewService(node.Clock(), 0, nil) // never initialized
		cfg := Config{CollectWindow: 800 * time.Millisecond, MaxResponses: 1,
			PingWindow: 400 * time.Millisecond}
		cfg.fillDefaults()
		d := NewDiscoverer(node, ntp, cfg)
		defer d.Close()
		d.SeedTargetSet([]BrokerInfo{b.info()})
		res, err := d.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := phases(res), []time.Duration{0, 3 * time.Millisecond, 0, 3 * time.Millisecond, 0}; !slices.Equal(got, want) {
			t.Errorf("phases = %#v, want %v", got, want)
		}
		if res.Selected.LogicalAddress != "fb" {
			t.Fatalf("selected %s", res.Selected.LogicalAddress)
		}
	})
}

// countingNode counts the endpoints and sessions a Discoverer opens.
type countingNode struct {
	transport.Node
	listens, dials atomic.Int64
}

func (n *countingNode) ListenPacket(port int) (transport.PacketConn, error) {
	n.listens.Add(1)
	return n.Node.ListenPacket(port)
}

func (n *countingNode) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	return n.Node.Dial(addr)
}

// warmRig is a BDN that acknowledges at once and forwards to one fake broker,
// and a Discoverer on a counting node, all at one site. No window is ever
// waited out: each wait ends on the frame it is for.
func warmRig(t *testing.T, seed int64) (*Discoverer, *countingNode) {
	t.Helper()
	net := laneNet(seed)
	b := startFakeBroker(t, net, simnet.SiteBloomington, "fb1")
	bdn := startSilentBDN(t, net, 0, b)
	node := &countingNode{Node: transport.NewSimNode(net, simnet.SiteBloomington, "warm-client", 0)}
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d := NewDiscoverer(node, ntp, Config{
		NodeName:      "warm-client",
		BDNAddrs:      []string{bdn.listener.Addr()},
		AckTimeout:    time.Minute,
		CollectWindow: time.Minute,
		MaxResponses:  1,
		PingCount:     1,
		PingWindow:    time.Minute,
	})
	t.Cleanup(d.Close)
	return d, node
}

func mustDiscover(t *testing.T, d *Discoverer) {
	t.Helper()
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits != 0 || res.Selected.LogicalAddress != "fb1" {
		t.Fatalf("selected %q with %d retransmits, want fb1 with none", res.Selected.LogicalAddress, res.Retransmits)
	}
}

// TestDiscovererOpensOneEndpointAndOneSession: what a Discoverer holds does
// not grow with the number of discoveries, and Close makes it cold, not dead.
func TestDiscovererOpensOneEndpointAndOneSession(t *testing.T) {
	exact(t, func(t *testing.T) {
		d, node := warmRig(t, 21)
		for i := 0; i < 200; i++ {
			mustDiscover(t, d)
		}
		if l, c := node.listens.Load(), node.dials.Load(); l != 1 || c != 1 {
			t.Fatalf("200 discoveries opened %d endpoints and %d sessions, want 1 and 1", l, c)
		}
		d.Close()
		d.Close() // nothing left to release
		if d.pc != nil || d.sess != nil {
			t.Fatal("Close left an endpoint or a session behind")
		}
		mustDiscover(t, d)
		mustDiscover(t, d)
		if l, c := node.listens.Load(), node.dials.Load(); l != 2 || c != 2 {
			t.Fatalf("after Close, two discoveries brought the totals to %d endpoints and %d sessions, want 2 and 2", l, c)
		}
	})
}

// TestConcurrentDiscoversShareTheWarmState: calls on one Discoverer from many
// goroutines take turns on its one endpoint and one session (run under -race).
func TestConcurrentDiscoversShareTheWarmState(t *testing.T) {
	exact(t, func(t *testing.T) {
		d, node := warmRig(t, 22)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					res, err := d.Discover()
					if err != nil || res.Selected.LogicalAddress != "fb1" {
						t.Errorf("discovery failed: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if l, c := node.listens.Load(), node.dials.Load(); l != 1 || c != 1 {
			t.Fatalf("200 concurrent discoveries opened %d endpoints and %d sessions, want 1 and 1", l, c)
		}
	})
}
