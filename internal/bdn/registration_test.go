//go:build goexperiment.synctest

package bdn

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// env is one simulated WAN, whose clock is the bubble's, and the
// test the BDNs and brokers started on it close with.
type env struct {
	net *simnet.Network
	t   *testing.T
	rng *rand.Rand
}

func (e *env) node(site, host string) (*transport.SimNode, *ntptime.Service) {
	skew := e.net.RandomSkew(20 * time.Millisecond)
	node := transport.NewSimNode(e.net, site, host, skew)
	ntp := ntptime.NewService(node.Clock(), skew, e.rng)
	ntp.InitImmediately()
	return node, ntp
}

func (e *env) bdn(cfg Config) *BDN {
	e.t.Helper()
	node, ntp := e.node(simnet.SiteBloomington, "bdn-"+cfg.Name)
	if cfg.InjectOverhead == 0 {
		cfg.InjectOverhead = time.Millisecond
	}
	d, err := New(node, ntp, cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(d.Close)
	return d
}

func (e *env) broker(site, name string) *broker.Broker {
	e.t.Helper()
	return e.brokerOn(site, name, obs.Handle{}, 0)
}

// brokerTTL starts a broker whose advertisements carry ttl: it refreshes
// them every ttl/3, the period a broker stamps its TTL from.
func (e *env) brokerTTL(site, name string, ttl time.Duration) *broker.Broker {
	e.t.Helper()
	return e.brokerOn(site, name, obs.Handle{}, ttl/3)
}

// brokerOn starts a broker that reports through h and refreshes its
// advertisement every advertise (0: never, and it carries no TTL).
func (e *env) brokerOn(site, name string, h obs.Handle, advertise time.Duration) *broker.Broker {
	e.t.Helper()
	node, ntp := e.node(site, name)
	b, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: name,
		Realm:          site,
		Sampler: metrics.NewStaticSampler(metrics.Usage{
			TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib,
		}),
		Handle:            h,
		AdvertiseInterval: advertise,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(b.Close)
	return b
}

// registered lets a second of model time pass — a registration lands in
// milliseconds — and requires d to list exactly n brokers.
func registered(t *testing.T, d *BDN, n int) {
	t.Helper()
	advance(time.Second)
	if got := d.BrokerCount(); got != n {
		t.Fatalf("%s lists %d brokers, want %d", d.Name(), got, n)
	}
}

// restart closes the BDN and brings up a fresh one over the same data
// directory (new sim node, same name/config), as after a process restart.
func (e *env) restart(d *BDN, cfg Config) *BDN {
	e.t.Helper()
	d.Close()
	return e.bdn(cfg)
}

func TestBrokerRegistrationStored(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 2)
		d := e.bdn(Config{Name: "gsl.org"})
		b := e.broker(simnet.SiteFSU, "broker-fsu")
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)
		if d.BrokerCount() != 1 {
			t.Fatalf("BrokerCount = %d", d.BrokerCount())
		}
		infos := d.Brokers()
		if infos[0].LogicalAddress != "broker-fsu" {
			t.Fatalf("stored %+v", infos[0])
		}
	})
}

func TestAdmitFilterRejects(t *testing.T) {
	exact(t, func(t *testing.T) {
		// "a BDN in the US may be interested only in broker additions in North
		// America."
		e := laneEnv(t, 3)
		d := e.bdn(Config{
			Name: "us-only",
			AdmitFilter: func(ad *core.Advertisement) bool {
				return !strings.Contains(ad.Broker.Realm, "cardiff")
			},
		})
		us := e.broker(simnet.SiteFSU, "broker-fsu")
		uk := e.broker(simnet.SiteCardiff, "broker-cardiff")
		_ = us.RegisterWithBDN(d.Addr())
		_ = uk.RegisterWithBDN(d.Addr())
		registered(t, d, 1)
		if n := d.tel.adsRejected.Value(); n != 1 {
			t.Fatalf("%d advertisements rejected, want the UK one", n)
		}
		if d.Brokers()[0].LogicalAddress != "broker-fsu" {
			t.Fatal("wrong broker admitted")
		}
	})
}

// requestViaBDN opens a stream to the BDN, sends a discovery request and
// returns the ack (nil on timeout).
func requestViaBDN(t *testing.T, e *env, d *BDN, req *core.DiscoveryRequest) *core.Ack {
	t.Helper()
	node, _ := e.node(simnet.SiteBloomington, "req-"+req.ID.String()[:8])
	conn, err := node.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
	if err := conn.Send(event.Encode(ev)); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.RecvTimeout(2 * time.Second)
	if err != nil {
		return nil
	}
	reply, err := event.Decode(frame)
	if err != nil || reply.Type != event.TypeDiscoveryAck {
		return nil
	}
	ack, err := core.DecodeAck(reply.Payload)
	if err != nil {
		return nil
	}
	return ack
}

func TestAckTimely(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 4)
		d := e.bdn(Config{Name: "gsl.org"})
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
			ResponseAddr: "bloomington/client:9"}
		ack := requestViaBDN(t, e, d, req)
		if ack == nil {
			t.Fatal("no ack")
		}
		if ack.RequestID != req.ID || ack.BDN != "gsl.org" {
			t.Fatalf("ack = %+v", ack)
		}
	})
}

func TestInjectionReachesBroker(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 5)
		d := e.bdn(Config{Name: "gsl.org"})
		b := e.broker(simnet.SiteIndianapolis, "broker-indy")
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)

		node, _ := e.node(simnet.SiteBloomington, "client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
			ResponseAddr: pc.LocalAddr()}
		if ack := requestViaBDN(t, e, d, req); ack == nil {
			t.Fatal("no ack")
		}
		payload, _, err := pc.RecvTimeout(3 * time.Second)
		if err != nil {
			t.Fatal("no discovery response after injection")
		}
		ev, err := event.Decode(payload)
		if err != nil || ev.Type != event.TypeDiscoveryResponse {
			t.Fatalf("unexpected reply: %v %v", ev, err)
		}
	})
}

// TestInjectedRequestCountsAsDiscoveryFrame: a request a BDN injects over a
// registration connection — the paper's primary ingress — is a discovery
// frame like one arriving by UDP, client session or broker link.
func TestInjectedRequestCountsAsDiscoveryFrame(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 11)
		d := e.bdn(Config{Name: "gsl.org"})
		reg := obs.NewRegistry()
		b := e.brokerOn(simnet.SiteIndianapolis, "broker-indy", obs.Handle{Metrics: reg}, 0)
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)

		node, _ := e.node(simnet.SiteBloomington, "client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
			ResponseAddr: pc.LocalAddr()}
		if ack := requestViaBDN(t, e, d, req); ack == nil {
			t.Fatal("no ack")
		}
		if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
			t.Fatal("no discovery response after injection")
		}
		who := obs.L("broker", "broker-indy")
		responses := reg.Counter("narada_broker_discovery_responses_total", "", who)
		if n := responses.Value(); n != 1 {
			t.Fatalf("%d responses counted, want 1", n)
		}
		frames := reg.Counter("narada_broker_frames_total", "", who, obs.L("kind", "discovery")).Value()
		if frames != 1 {
			t.Fatalf(`frames_total{kind="discovery"} = %d with 1 response sent; want 1`, frames)
		}
	})
}

func TestPrivateBDNRequiresCredential(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 7)
		d := e.bdn(Config{Name: "private.corp", Private: true,
			RequiredCredential: []byte("badge")})
		b := e.broker(simnet.SiteIndianapolis, "broker-indy")
		_ = b.RegisterWithBDN(d.Addr())
		registered(t, d, 1)

		node, _ := e.node(simnet.SiteBloomington, "client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()

		// Without credentials: acked (timely ack is unconditional) but never
		// disseminated.
		noCred := &core.DiscoveryRequest{ID: uuid.New(), Requester: "c",
			ResponseAddr: pc.LocalAddr()}
		if ack := requestViaBDN(t, e, d, noCred); ack == nil {
			t.Fatal("unauthorized request not acked")
		}
		if _, _, err := pc.RecvTimeout(500 * time.Millisecond); err == nil {
			t.Fatal("unauthorized request was disseminated")
		}

		withCred := &core.DiscoveryRequest{ID: uuid.New(), Requester: "c",
			ResponseAddr: pc.LocalAddr(), Credentials: []byte("badge")}
		if ack := requestViaBDN(t, e, d, withCred); ack == nil {
			t.Fatal("authorized request not acked")
		}
		if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
			t.Fatal("authorized request not disseminated")
		}
	})
}

func TestClosestFarthestInjection(t *testing.T) {
	exact(t, func(t *testing.T) {
		// With 3 registered brokers and the smart policy, only the closest and
		// farthest get the injection; the middle broker (unconnected) never
		// hears the request.
		e := laneEnv(t, 9)
		d := e.bdn(Config{Name: "gsl.org", Policy: InjectClosestFarthest})
		near := e.broker(simnet.SiteIndianapolis, "a-near")
		mid := e.broker(simnet.SiteUMN, "b-mid")
		far := e.broker(simnet.SiteCardiff, "c-far")
		for _, b := range []*broker.Broker{near, mid, far} {
			if err := b.RegisterWithBDN(d.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		registered(t, d, 3)
		d.MeasureDistances() // exact in a bubble (TestMeasureDistances)

		node, _ := e.node(simnet.SiteBloomington, "client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
			ResponseAddr: pc.LocalAddr()}
		if ack := requestViaBDN(t, e, d, req); ack == nil {
			t.Fatal("no ack")
		}
		// Every response that comes arrives within a second of model time.
		seen := map[string]bool{}
		for {
			payload, _, err := pc.RecvTimeout(time.Second)
			if err != nil {
				break
			}
			if ev, err := event.Decode(payload); err == nil && ev.Type == event.TypeDiscoveryResponse {
				if resp, err := core.DecodeDiscoveryResponse(ev.Payload); err == nil {
					seen[resp.Broker.LogicalAddress] = true
				}
			}
		}
		if n := d.tel.injects.Value(); n != 2 || len(seen) != 2 || !seen["a-near"] || !seen["c-far"] {
			t.Fatalf("%d injections, responses %v; want the closest and the farthest only", n, seen)
		}
	})
}

func TestSubscribeViaBrokerLearnsAdvertisements(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Second dissemination form: a broker publishes its advertisement on the
		// public topic; a BDN subscribed via another broker learns it.
		e := laneEnv(t, 10)
		d := e.bdn(Config{Name: "gsl.org"})
		b1 := e.broker(simnet.SiteIndianapolis, "hub")
		b2 := e.broker(simnet.SiteUMN, "spoke")
		if err := b2.LinkTo(b1.StreamAddr()); err != nil {
			t.Fatal(err)
		}
		advance(time.Second)
		if b1.LinkCount() != 1 || b2.LinkCount() != 1 {
			t.Fatalf("hub-spoke link up on %d and %d sides, want both", b1.LinkCount(), b2.LinkCount())
		}
		if err := d.SubscribeViaBroker(b1.StreamAddr()); err != nil {
			t.Fatal(err)
		}
		advance(time.Second)
		if b1.ClientCount() != 1 {
			t.Fatalf("hub holds %d client sessions, want the BDN's", b1.ClientCount())
		}
		if err := b2.PublishAdvertisement(); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)
		if d.Brokers()[0].LogicalAddress != "spoke" {
			t.Fatalf("learned %+v", d.Brokers()[0])
		}
	})
}

// TestRequesterSessionServesManyRequests: a requester keeps its session
// between discoveries, so every request on it is acknowledged and injected,
// not just the first.
func TestRequesterSessionServesManyRequests(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 12)
		d := e.bdn(Config{Name: "gsl.org"})
		for _, name := range []string{"broker-a", "broker-b"} {
			if err := e.broker(simnet.SiteIndianapolis, name).RegisterWithBDN(d.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		registered(t, d, 2)

		node, _ := e.node(simnet.SiteBloomington, "client")
		conn, err := node.Dial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 2; i++ {
			req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client"}
			ev := event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req))
			if err := conn.Send(event.Encode(ev)); err != nil {
				t.Fatal(err)
			}
			frame, err := conn.RecvTimeout(2 * time.Second)
			if err != nil {
				t.Fatalf("request %d: no ack: %v", i, err)
			}
			reply, err := event.Decode(frame)
			if err != nil || reply.Type != event.TypeDiscoveryAck {
				t.Fatalf("request %d: reply %v, %v", i, reply, err)
			}
			if ack, err := core.DecodeAck(reply.Payload); err != nil || ack.RequestID != req.ID {
				t.Fatalf("request %d: ack %+v, %v", i, ack, err)
			}
		}
		advance(2 * time.Millisecond) // two injections, an inject overhead each
		if injects, acked := d.tel.injects.Value(), d.tel.reqAcked.Value(); injects != 4 || acked != 2 {
			t.Fatalf("%d injections and %d acks, want both requests injected at both brokers", injects, acked)
		}
	})
}

func TestRestartRecoversRegistry(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 40)
		cfg := Config{Name: "durable.org", DataDir: t.TempDir()}
		d := e.bdn(cfg)
		b1 := e.brokerTTL(simnet.SiteFSU, "broker-fsu", time.Hour)
		b2 := e.brokerTTL(simnet.SiteIndianapolis, "broker-indy", time.Hour)
		if err := b1.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := b2.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 2)
		before := d.Brokers()

		d2 := e.restart(d, cfg)
		if d2.BrokerCount() != 2 {
			t.Fatalf("post-restart BrokerCount = %d, want 2", d2.BrokerCount())
		}
		after := d2.Brokers()
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("recovered table differs:\n before %+v\n after  %+v", before, after)
		}
		// TTLs are intact: each registration keeps the hour it had left when
		// the BDN closed, less the second since it landed — 13 ms (FSU) and
		// 1.5 ms (Indianapolis) after registration began.
		want := map[string]time.Duration{
			"broker-fsu":  time.Hour - time.Second + 13*time.Millisecond,
			"broker-indy": time.Hour - time.Second + 1500*time.Microsecond,
		}
		if got := remainingTTLs(d2); !reflect.DeepEqual(got, want) {
			t.Errorf("recovered remaining TTLs %v", got)
		}
	})
}

func TestSweepDeleteIsDurable(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 42)
		cfg := Config{Name: "sweep.org", DataDir: t.TempDir(), SweepInterval: 200 * time.Millisecond}
		d := e.bdn(cfg)
		b := e.brokerTTL(simnet.SiteFSU, "broker-gone", 2*time.Second)
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)
		b.Close() // stop refreshes so the registration ages out
		advance(5 * time.Second)
		if d.BrokerCount() != 0 {
			t.Fatalf("expired broker still listed (%d)", d.BrokerCount())
		}
		d2 := e.restart(d, cfg)
		if d2.BrokerCount() != 0 {
			t.Fatalf("swept broker resurrected by recovery (%d)", d2.BrokerCount())
		}
	})
}

// TestConfigCredentialWinsAfterRestart: the credential is configuration. A
// data directory written under one credential does not bring it back when
// the BDN restarts with another.
func TestConfigCredentialWinsAfterRestart(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 46)
		cfg := Config{Name: "priv.org", DataDir: t.TempDir(), Private: true,
			RequiredCredential: []byte("A")}
		d := e.bdn(cfg)
		b := e.broker(simnet.SiteIndianapolis, "broker-indy")
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, d, 1)

		cfg.RequiredCredential = []byte("B")
		d2 := e.restart(d, cfg) // graceful: the final snapshot is what recovery reads
		if got := string(d2.Credential()); got != "B" {
			t.Fatalf("credential after restart = %q, want the configured %q", got, "B")
		}
		registered(t, d2, 1)

		node, _ := e.node(simnet.SiteBloomington, "client")
		pc, _ := node.ListenPacket(0)
		defer pc.Close()
		stale := &core.DiscoveryRequest{ID: uuid.New(), Requester: "c",
			ResponseAddr: pc.LocalAddr(), Credentials: []byte("A")}
		if ack := requestViaBDN(t, e, d2, stale); ack == nil {
			t.Fatal("request with the old credential not acked")
		}
		if _, _, err := pc.RecvTimeout(500 * time.Millisecond); err == nil || d2.tel.reqDenied.Value() != 1 {
			t.Fatalf("request with the old credential was disseminated (denied = %d)", d2.tel.reqDenied.Value())
		}
		current := &core.DiscoveryRequest{ID: uuid.New(), Requester: "c",
			ResponseAddr: pc.LocalAddr(), Credentials: []byte("B")}
		if ack := requestViaBDN(t, e, d2, current); ack == nil {
			t.Fatal("request with the configured credential not acked")
		}
		if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
			t.Fatal("request with the configured credential not disseminated")
		}
	})
}

// memberPort is the stream port of every BDN these tests wire into a set.
const memberPort = 7000

// memberAddr is the stream address e.member gives the BDN named name at site.
func memberAddr(site, name string) string {
	return transport.FormatSimAddr(simnet.Addr{Site: site, Host: "bdn-" + name, Port: memberPort})
}

// member starts a BDN named name at site, on memberPort, that pulls the
// tables of peers.
func (e *env) member(site string, cfg Config, peers ...string) *BDN {
	e.t.Helper()
	node, ntp := e.node(site, "bdn-"+cfg.Name)
	cfg.StreamPort, cfg.Peers = memberPort, peers
	d, err := New(node, ntp, cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(d.Close)
	return d
}

// pullFrom asks d for its table with cred, as a peer's exchange does, and
// returns the answer (nil when d closed the connection unanswered).
func pullFrom(t *testing.T, e *env, d *BDN, cred string) []record {
	t.Helper()
	node, _ := e.node(simnet.SiteBloomington, "puller")
	conn, err := node.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := event.New(event.TypeLinkHello, "", []byte(cred))
	hello.SetHeader(event.HeaderRole, event.RoleTable)
	if err := conn.Send(event.Encode(hello)); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.RecvTimeout(2 * time.Second)
	if err != nil {
		return nil
	}
	recs, err := decodeState(frame)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestMembersExchangeTables: a broker registered with one member of a set is
// listed by the other, which pulls it.
func TestMembersExchangeTables(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 54)
		a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
		b := e.member(simnet.SiteIndianapolis, Config{Name: "b.org"}, memberAddr(simnet.SiteBloomington, "a.org"))
		if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, a, 1)
		advance(exchangeEvery)
		if b.BrokerCount() != 1 {
			t.Fatalf("b.org lists %v an exchange period later, want broker-fsu", b.Brokers())
		}
		if b.tel.adsMerged.Value() == 0 {
			t.Fatal("b.org lists the broker without having merged it")
		}
	})
}

// TestMemberCatchesUpAfterPartition: a registration made while two members
// could not reach each other reaches the cut-off one once the cut heals.
func TestMemberCatchesUpAfterPartition(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 55)
		a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
		b := e.member(simnet.SiteIndianapolis, Config{Name: "b.org"}, memberAddr(simnet.SiteBloomington, "a.org"))
		e.net.Partition(simnet.SiteBloomington, simnet.SiteIndianapolis)
		if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, a, 1)
		advance(3 * exchangeEvery)
		if b.BrokerCount() != 0 {
			t.Fatalf("b.org pulled across the partition: %v", b.Brokers())
		}
		e.net.Heal(simnet.SiteBloomington, simnet.SiteIndianapolis)
		advance(exchangeEvery)
		if b.BrokerCount() != 1 {
			t.Fatalf("b.org lists %v an exchange period after the heal, want broker-fsu", b.Brokers())
		}
	})
}

// TestRestartedMemberPullsWhatItMissed: a member that was down while a broker
// registered with the others lists that broker after it restarts, from its
// first pull.
func TestRestartedMemberPullsWhatItMissed(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 56)
		cfg := Config{Name: "b.org", DataDir: filepath.Join(t.TempDir(), "b")}
		a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
		b := e.member(simnet.SiteIndianapolis, cfg, memberAddr(simnet.SiteBloomington, "a.org"))
		b.Close()
		if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
			t.Fatal(err)
		}
		registered(t, a, 1)
		b = e.member(simnet.SiteIndianapolis, cfg, memberAddr(simnet.SiteBloomington, "a.org"))
		advance(3 * exchangeEvery / 2) // its first pull, and not its second
		if b.BrokerCount() != 1 {
			t.Fatalf("the restarted b.org lists %v before a second pull, want broker-fsu", b.Brokers())
		}
	})
}

// TestSupervisedRegistrationWaitsForLateBDN: a supervised broker that
// registers with a BDN before anything listens at its address gets the error,
// and is listed once a BDN comes up there — its supervisor kept dialling.
func TestSupervisedRegistrationWaitsForLateBDN(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 57)
		node, ntp := e.node(simnet.SiteFSU, "broker-early")
		b, err := broker.New(node, ntp, broker.Config{
			LogicalAddress: "broker-early",
			Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}),
			Supervise:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		if err := b.RegisterWithBDN(memberAddr(simnet.SiteBloomington, "late.org")); err == nil {
			t.Fatal("registration with nothing listening reported success")
		}
		d := e.member(simnet.SiteBloomington, Config{Name: "late.org"})
		registered(t, d, 1)
	})
}
