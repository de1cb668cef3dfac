package broker

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/topics"
	"narada/internal/transport"
)

const mib = 1024 * 1024

// env spins up a simulated WAN for broker tests.
type env struct {
	net *simnet.Network
	t   *testing.T
	rng *rand.Rand
}

func newEnv(t *testing.T, seed int64) *env {
	return &env{
		net: simnet.NewPaperWAN(simnet.Config{Seed: seed}),
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

func (e *env) broker(site, name string, cfg Config) *Broker {
	e.t.Helper()
	node, ntp := e.node(site, name)
	if cfg.LogicalAddress == "" {
		cfg.LogicalAddress = name
	}
	if cfg.Realm == "" {
		cfg.Realm = site
	}
	if cfg.Sampler == nil {
		cfg.Sampler = metrics.NewStaticSampler(metrics.Usage{
			TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib,
		})
	}
	b, err := New(node, ntp, cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(b.Close)
	return b
}

// matchIDs returns the ids of the registrations in subs that match topic
// (nil when none do).
func matchIDs(subs *topics.Table, topic string) []string {
	var ids []string
	subs.MatchEachUnique(topic, new(topics.Scratch), func(id string, _ any) { ids = append(ids, id) })
	return ids
}

func TestNewRequiresLogicalAddress(t *testing.T) {
	e := newEnv(t, 1)
	node, ntp := e.node(simnet.SiteUMN, "x")
	if _, err := New(node, ntp, Config{}); err == nil {
		t.Fatal("missing logical address accepted")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	e := newEnv(t, 2)
	b := e.broker(simnet.SiteUMN, "b1", Config{})
	if err := b.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestPublishValidatesTopic(t *testing.T) {
	e := newEnv(t, 15)
	b := e.broker(simnet.SiteUMN, "b1", Config{})
	if err := b.Publish("bad//topic", nil); err == nil {
		t.Fatal("invalid topic accepted")
	}
}

func TestClientCountAndClose(t *testing.T) {
	e := newEnv(t, 16)
	b := e.broker(simnet.SiteUMN, "b1", Config{})
	node, _ := e.node(simnet.SiteUMN, "c")
	c, err := Connect(node, b.StreamAddr(), "c")
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Subscribe("a/b")
	waitFor(t, "the client session", func() bool { return b.ClientCount() == 1 })
	c.Close()
	waitFor(t, "the session teardown", func() bool { return b.ClientCount() == 0 })
	if _, err := c.Next(0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Next after close: %v", err)
	}
}

// TestSuperviseOnlyWhenConfigured: without Config.Supervise a relationship
// is dialled once, whatever the dial's outcome.
func TestSuperviseOnlyWhenConfigured(t *testing.T) {
	e := newEnv(t, 61)
	b := e.broker(simnet.SiteUMN, "b", Config{})
	errPeerDown := errors.New("peer down")
	dials := 0
	dial := func(string) (<-chan struct{}, error) { dials++; return nil, errPeerDown }
	if err := b.superviseDial(SuperviseLink, "peer", dial); !errors.Is(err, errPeerDown) {
		t.Fatalf("superviseDial = %v, want the dial's error", err)
	}
	// No supervisor means no redial loop was started.
	if b.Supervisor(SuperviseLink, "peer") != nil {
		t.Fatal("an unsupervised broker keeps a supervisor")
	}
	if n := dials; n != 1 {
		t.Fatalf("%d dials without supervision, want 1", n)
	}
}

// TestCloseStopsRedialLoops: Close stops every loop before it tears the
// connections down, so the sessions its teardown ends are not redialled.
func TestCloseStopsRedialLoops(t *testing.T) {
	e := newEnv(t, 62)
	dialer := e.broker(simnet.SiteUMN, "dialer", Config{Supervise: true})
	peer := e.broker(simnet.SiteFSU, "peer", Config{})
	if err := dialer.LinkTo(peer.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	s := dialer.Supervisor(SuperviseLink, peer.StreamAddr())
	if got := s.State(); got != LinkConnected {
		t.Fatalf("state = %v, want connected", got)
	}
	dialer.Close()
	if got := s.State(); got != LinkStopped {
		t.Fatalf("state after Close = %v, want stopped", got)
	}
	if n := s.Attempts(); n != 0 {
		t.Fatalf("%d redials after Close tore the link down, want 0", n)
	}
	if err := dialer.LinkTo(peer.StreamAddr()); !errors.Is(err, errClosed) {
		t.Fatalf("LinkTo on a closed broker = %v, want errClosed", err)
	}
}

func TestLinkStateString(t *testing.T) {
	for s, want := range map[LinkState]string{
		LinkConnected: "connected", LinkDegraded: "degraded",
		LinkReconnecting: "reconnecting", LinkStopped: "stopped",
	} {
		if got := s.String(); got != want {
			t.Fatalf("LinkState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
