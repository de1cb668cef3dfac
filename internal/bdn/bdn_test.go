package bdn

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
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
	"narada/internal/wal"
)

const mib = 1024 * 1024

type env struct {
	net *simnet.Network
	t   *testing.T
	rng *rand.Rand
}

func newEnv(t *testing.T, seed int64) *env {
	return &env{
		net: simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: seed}),
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
	}
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
	return e.brokerOn(site, name, obs.Handle{})
}

// brokerOn starts a broker that reports through h.
func (e *env) brokerOn(site, name string, h obs.Handle) *broker.Broker {
	e.t.Helper()
	node, ntp := e.node(site, name)
	b, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: name,
		Realm:          site,
		Sampler: metrics.NewStaticSampler(metrics.Usage{
			TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib,
		}),
		Handle: h,
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

// waitFor polls cond (wall clock, 5 s budget) — the tests wait on the state a
// step leaves behind, never on a model-time sleep that stands for it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestNewRequiresName(t *testing.T) {
	e := newEnv(t, 1)
	node, ntp := e.node(simnet.SiteBloomington, "x")
	if _, err := New(node, ntp, Config{}); err == nil {
		t.Fatal("missing name accepted")
	}
}

func TestBrokerRegistrationStored(t *testing.T) {
	e := newEnv(t, 2)
	d := e.bdn(Config{Name: "gsl.org"})
	b := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)
	if d.BrokerCount() != 1 {
		t.Fatalf("BrokerCount = %d", d.BrokerCount())
	}
	infos := d.Brokers()
	if infos[0].LogicalAddress != "broker-fsu" {
		t.Fatalf("stored %+v", infos[0])
	}
}

func TestAdmitFilterRejects(t *testing.T) {
	// "a BDN in the US may be interested only in broker additions in North
	// America."
	e := newEnv(t, 3)
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
	awaitBrokers(t, d, 1)
	waitFor(t, "the UK advertisement to be rejected",
		func() bool { return d.tel.adsRejected.Value() == 1 })
	if d.BrokerCount() != 1 {
		t.Fatalf("BrokerCount = %d, want 1 (UK filtered)", d.BrokerCount())
	}
	if d.Brokers()[0].LogicalAddress != "broker-fsu" {
		t.Fatal("wrong broker admitted")
	}
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
	e := newEnv(t, 4)
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
}

func TestInjectionReachesBroker(t *testing.T) {
	e := newEnv(t, 5)
	d := e.bdn(Config{Name: "gsl.org"})
	b := e.broker(simnet.SiteIndianapolis, "broker-indy")
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)

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
}

// TestInjectedRequestCountsAsDiscoveryFrame: a request a BDN injects over a
// registration connection — the paper's primary ingress — is a discovery
// frame like one arriving by UDP, client session or broker link.
func TestInjectedRequestCountsAsDiscoveryFrame(t *testing.T) {
	e := newEnv(t, 11)
	d := e.bdn(Config{Name: "gsl.org"})
	reg := obs.NewRegistry()
	b := e.brokerOn(simnet.SiteIndianapolis, "broker-indy", obs.Handle{Metrics: reg})
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)

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
	waitFor(t, "the response to be counted", func() bool { return responses.Value() == 1 })
	frames := reg.Counter("narada_broker_frames_total", "", who, obs.L("kind", "discovery")).Value()
	if frames != 1 {
		t.Fatalf(`frames_total{kind="discovery"} = %d with 1 response sent; want 1`, frames)
	}
}

func TestIdempotentRequests(t *testing.T) {
	e := newEnv(t, 6)
	d := e.bdn(Config{Name: "gsl.org"})
	b := e.broker(simnet.SiteIndianapolis, "broker-indy")
	_ = b.RegisterWithBDN(d.Addr())
	awaitBrokers(t, d, 1)

	node, _ := e.node(simnet.SiteBloomington, "client")
	pc, _ := node.ListenPacket(0)
	defer pc.Close()
	req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
		ResponseAddr: pc.LocalAddr()}
	// Send the same request twice: both must be acked (the broker dedups
	// the second injection if it happens; the BDN must not re-inject).
	if ack := requestViaBDN(t, e, d, req); ack == nil {
		t.Fatal("first request not acked")
	}
	if ack := requestViaBDN(t, e, d, req); ack == nil {
		t.Fatal("retransmitted request not acked (idempotency broken)")
	}
	// Exactly one response arrives.
	if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
		t.Fatal("no response")
	}
	if _, _, err := pc.RecvTimeout(500 * time.Millisecond); err == nil {
		t.Fatal("duplicate response after idempotent retransmission")
	}
}

func TestPrivateBDNRequiresCredential(t *testing.T) {
	e := newEnv(t, 7)
	d := e.bdn(Config{Name: "private.corp", Private: true,
		RequiredCredential: []byte("badge")})
	b := e.broker(simnet.SiteIndianapolis, "broker-indy")
	_ = b.RegisterWithBDN(d.Addr())
	awaitBrokers(t, d, 1)

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
}

func TestMeasureDistances(t *testing.T) {
	e := newEnv(t, 8)
	d := e.bdn(Config{Name: "gsl.org"})
	near := e.broker(simnet.SiteIndianapolis, "broker-near")
	far := e.broker(simnet.SiteCardiff, "broker-far")
	_ = near.RegisterWithBDN(d.Addr())
	_ = far.RegisterWithBDN(d.Addr())
	awaitBrokers(t, d, 2)

	dists := d.MeasureDistances()
	if len(dists) != 2 {
		t.Fatalf("measured %d distances, want 2: %v", len(dists), dists)
	}
	if dists["broker-near"] >= dists["broker-far"] {
		t.Fatalf("distance ordering wrong: near=%v far=%v",
			dists["broker-near"], dists["broker-far"])
	}
}

func TestClosestFarthestInjection(t *testing.T) {
	// With 3 registered brokers and the smart policy, only the closest and
	// farthest get the injection; the middle broker (unconnected) never
	// hears the request.
	e := newEnv(t, 9)
	d := e.bdn(Config{Name: "gsl.org", Policy: InjectClosestFarthest})
	near := e.broker(simnet.SiteIndianapolis, "a-near")
	mid := e.broker(simnet.SiteUMN, "b-mid")
	far := e.broker(simnet.SiteCardiff, "c-far")
	for _, b := range []*broker.Broker{near, mid, far} {
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	awaitBrokers(t, d, 3)
	// The policy is under test, not the measurement (TestMeasureDistances):
	// the distances are given, not pinged on a clock the host's load bends.
	d.mu.Lock()
	for logical, rtt := range map[string]time.Duration{
		"a-near": 3 * time.Millisecond, "b-mid": 22 * time.Millisecond, "c-far": 120 * time.Millisecond} {
		r := d.brokers[logical]
		r.distance = rtt
	}
	d.mu.Unlock()

	node, _ := e.node(simnet.SiteBloomington, "client")
	pc, _ := node.ListenPacket(0)
	defer pc.Close()
	req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client",
		ResponseAddr: pc.LocalAddr()}
	if ack := requestViaBDN(t, e, d, req); ack == nil {
		t.Fatal("no ack")
	}
	// Responses are waited for, not given a window of model time: both
	// targets answer, however long the host takes to schedule them, and by
	// then the BDN has made every injection it will make.
	seen := map[string]bool{}
	waitFor(t, "responses from the closest and the farthest broker", func() bool {
		payload, _, err := pc.RecvTimeout(100 * time.Millisecond)
		if err != nil {
			return false
		}
		if ev, err := event.Decode(payload); err == nil && ev.Type == event.TypeDiscoveryResponse {
			if resp, err := core.DecodeDiscoveryResponse(ev.Payload); err == nil {
				seen[resp.Broker.LogicalAddress] = true
			}
		}
		return seen["a-near"] && seen["c-far"]
	})
	if n := d.tel.injects.Value(); n != 2 || seen["b-mid"] {
		t.Fatalf("%d injections, responses %v; want the closest and the farthest only", n, seen)
	}
	if _, _, err := pc.RecvTimeout(500 * time.Millisecond); err == nil {
		t.Fatal("a third response: the middle broker was reached despite the unconnected topology")
	}
}

func TestSubscribeViaBrokerLearnsAdvertisements(t *testing.T) {
	// Second dissemination form: a broker publishes its advertisement on the
	// public topic; a BDN subscribed via another broker learns it.
	e := newEnv(t, 10)
	d := e.bdn(Config{Name: "gsl.org"})
	b1 := e.broker(simnet.SiteIndianapolis, "hub")
	b2 := e.broker(simnet.SiteUMN, "spoke")
	if err := b2.LinkTo(b1.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the hub-spoke link on both sides",
		func() bool { return b1.LinkCount() == 1 && b2.LinkCount() == 1 })
	if err := d.SubscribeViaBroker(b1.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the BDN's subscriber session at the hub",
		func() bool { return b1.ClientCount() == 1 })
	// The session is counted before the hub has read its subscription, so an
	// advertisement published at once can find no subscriber: publish again
	// until one arrives, as a refreshing broker would.
	deadline := time.Now().Add(5 * time.Second)
	for d.BrokerCount() == 0 && time.Now().Before(deadline) {
		if err := b2.PublishAdvertisement(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if d.BrokerCount() != 1 {
		t.Fatalf("BrokerCount = %d, want 1 via topic", d.BrokerCount())
	}
	if d.Brokers()[0].LogicalAddress != "spoke" {
		t.Fatalf("learned %+v", d.Brokers()[0])
	}
}

// TestRequesterSessionServesManyRequests: a requester keeps its session
// between discoveries, so every request on it is acknowledged and injected,
// not just the first.
func TestRequesterSessionServesManyRequests(t *testing.T) {
	e := newEnv(t, 12)
	d := e.bdn(Config{Name: "gsl.org"})
	for _, name := range []string{"broker-a", "broker-b"} {
		if err := e.broker(simnet.SiteIndianapolis, name).RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	awaitBrokers(t, d, 2)

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
	waitFor(t, "both requests to be injected at both brokers",
		func() bool { return d.tel.injects.Value() == 4 })
	if acked := d.tel.reqAcked.Value(); acked != 2 {
		t.Fatalf("reqAcked = %d, want 2", acked)
	}
}

// TestIdleRequesterSessionIsReaped: the BDN closes a requester session that
// has been silent for requesterIdle, and the requester's next discovery
// redials without counting a retransmission.
func TestIdleRequesterSessionIsReaped(t *testing.T) {
	// requesterIdle is half a second of wall time at this scale: long enough
	// to see the live session first, short enough to wait out.
	e := newEnv(t, 13)
	e.net = simnet.NewPaperWAN(simnet.Config{Scale: 60, Seed: 13})
	d := e.bdn(Config{Name: "gsl.org"})
	if err := e.broker(simnet.SiteIndianapolis, "broker-indy").RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)
	tracked := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.conns)
	}
	waitFor(t, "the registration to be the one tracked connection", func() bool { return tracked() == 1 })

	node, ntp := e.node(simnet.SiteBloomington, "client")
	req := core.NewDiscoverer(node, ntp, core.Config{
		NodeName: "client", BDNAddrs: []string{d.Addr()},
		MaxResponses: 1, AckTimeout: 20 * time.Second, CollectWindow: 20 * time.Second,
	})
	defer req.Close()
	if _, err := req.Discover(); err != nil {
		t.Fatal(err)
	}
	if n := tracked(); n != 2 {
		t.Fatalf("%d tracked connections with a live requester session, want registration + session", n)
	}
	waitFor(t, "the idle requester session to be closed and untracked", func() bool { return tracked() == 1 })
	res, err := req.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits != 0 || res.BDN != "gsl.org" {
		t.Fatalf("after the reap: %d retransmits via %q, want 0 via gsl.org", res.Retransmits, res.BDN)
	}
}

// scriptedConn is a registration or requester connection whose peer is the
// benchmark: Send counts what the BDN writes and drops it.
type scriptedConn struct {
	transport.Conn
	sent int
}

func (c *scriptedConn) Send([]byte) error { c.sent++; return nil }

// TestBrokerCountAllocFree: the registry gauge reads BrokerCount on every
// /metrics scrape, so counting must not copy or sort the table.
func TestBrokerCountAllocFree(t *testing.T) {
	net := simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "count-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "count-bdn"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"broker-c", "broker-a", "broker-b"} {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: name}}
		if d.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad)), nil) == "" {
			t.Fatalf("advertisement of %s not stored", name)
		}
	}
	if n := d.BrokerCount(); n != 3 {
		t.Fatalf("BrokerCount = %d, want 3", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.BrokerCount() }); allocs != 0 {
		t.Fatalf("BrokerCount allocates %.1f/op, want 0", allocs)
	}
}

// levelRecorder is a slog.Handler that keeps each record's level and message.
type levelRecorder struct {
	mu   sync.Mutex
	recs []string
}

func (h *levelRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *levelRecorder) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Level.String()+" "+r.Message)
	h.mu.Unlock()
	return nil
}
func (h *levelRecorder) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *levelRecorder) WithGroup(string) slog.Handler      { return h }

// TestRefreshLogsAtDebug: a new registration is an Info line, a refresh of
// one the BDN already holds only a Debug line.
func TestRefreshLogsAtDebug(t *testing.T) {
	net := simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "log-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	rec := &levelRecorder{}
	cfg := Config{Name: "log-bdn"}
	cfg.Logger = slog.New(rec)
	d, err := New(node, ntp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-a"}}
	for i := 0; i < 3; i++ {
		if d.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad)), nil) == "" {
			t.Fatal("advertisement not stored")
		}
	}
	want := []string{"INFO advertisement stored", "DEBUG advertisement stored", "DEBUG advertisement stored"}
	if fmt.Sprint(rec.recs) != fmt.Sprint(want) {
		t.Fatalf("logged %q, want %q", rec.recs, want)
	}
}

// BenchmarkBDNProcessRequest is the BDN's rung of the discovery ladder: one
// decoded request acknowledged on its session and injected at two registered
// brokers, every connection scripted so only the BDN's own work is timed.
func BenchmarkBDNProcessRequest(b *testing.B) {
	net := simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "bench-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "bench-bdn"})
	if err != nil {
		b.Fatal(err)
	}
	var regs [2]scriptedConn
	for i := range regs {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-" + string(rune('a'+i))}}
		ev := event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad))
		if d.storeAdvertisement(ev, &regs[i]) == "" {
			b.Fatal("advertisement not stored")
		}
	}
	req := &core.DiscoveryRequest{Requester: "bench-req", ResponseAddr: "127.0.0.1:4000",
		Protocols: []string{"tcp", "udp"}}
	ev := event.New(event.TypeDiscoveryRequest, "", nil)
	ev.Source = req.Requester
	var session scriptedConn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uuid.New() // a repeated UUID would be acknowledged but not injected
		ev.Payload = core.EncodeDiscoveryRequest(req)
		ev.SetTrace(req.ID.String(), req.Requester, 0)
		d.processRequest(&session, ev, req)
	}
	b.StopTimer()
	if session.sent != b.N || regs[0].sent != b.N || regs[1].sent != b.N {
		b.Fatalf("%d requests: %d acks, %d + %d injections", b.N, session.sent, regs[0].sent, regs[1].sent)
	}
}

// BenchmarkStoreAdvertisement is the registry's rung: one broker refreshing
// its registration at a durable BDN — decode, admit, commit the upsert, append
// it to the WAL. SyncNever and no snapshots, so the disk's fsync is not what
// is timed.
func BenchmarkStoreAdvertisement(b *testing.B) {
	net := simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "bench-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "bench-bdn", DataDir: b.TempDir(), Fsync: wal.SyncNever,
		AdTTL: time.Minute, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-a", Realm: "bloomington",
		Endpoints: []core.TransportEndpoint{{Protocol: "tcp", Address: "127.0.0.1:5045"},
			{Protocol: "udp", Address: "127.0.0.1:5046"}}}}
	ev := event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad))
	var reg scriptedConn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.storeAdvertisement(ev, &reg) == "" {
			b.Fatal("advertisement not stored")
		}
	}
}
