package bdn

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/wal"
)

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

// openQuiet starts a BDN named name whose sweeper never fires on its own and
// whose NTP service reads its node's clock.
func openQuiet(t *testing.T, e *env, name string, cfg Config) *BDN {
	t.Helper()
	node := transport.NewSimNode(e.net, simnet.SiteBloomington, "bdn-"+name, 0)
	cfg.Name, cfg.SweepInterval, cfg.Fsync = name, 1000*time.Hour, wal.SyncNever
	d, err := New(node, ntptime.NewService(node.Clock(), 0, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// quietPair is two quiet BDNs: a member and the peer whose table it merges.
func quietPair(t *testing.T, e *env, cfg Config) (member, peer *BDN) {
	t.Helper()
	return openQuiet(t, e, "member", cfg), openQuiet(t, e, "peer", Config{})
}

// register hands ad to d the way a broker's registration connection does.
func register(d *BDN, ad *core.Advertisement) {
	d.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad)), nil)
}

// brokerAd is an advertisement issued at issued.
func brokerAd(logical, realm string, issued time.Time, ttl time.Duration) *core.Advertisement {
	return &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: logical, Realm: realm},
		IssuedAt: issued, TTL: ttl}
}

// TestMergePassesAdmitFilter: an entry this member would refuse from the
// broker itself it refuses from a peer's table too. The refusal is counted
// once, when the broker advertised here, and not again on every pull.
func TestMergePassesAdmitFilter(t *testing.T) {
	e := newEnv(t, 52)
	m, p := quietPair(t, e, Config{AdmitFilter: func(ad *core.Advertisement) bool {
		return !strings.Contains(ad.Broker.Realm, "cardiff")
	}})
	now := e.net.Clock().Now()
	cardiff := brokerAd("broker-cardiff", "cardiff", now, time.Minute)
	register(p, brokerAd("broker-fsu", "fsu", now, time.Minute))
	register(p, cardiff)
	register(m, cardiff)
	for pull := 1; pull <= 2; pull++ {
		pullInto(t, m, p)
		if got := m.Brokers(); len(got) != 1 || got[0].LogicalAddress != "broker-fsu" {
			t.Fatalf("pull %d: merged %v, want broker-fsu alone", pull, got)
		}
		if m.tel.adsRejected.Value() != 1 || m.tel.adsMerged.Value() != 1 {
			t.Fatalf("pull %d: rejected %d, merged %d; want 1 and 1", pull, m.tel.adsRejected.Value(), m.tel.adsMerged.Value())
		}
	}
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
	e := newEnv(t, 54)
	a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
	b := e.member(simnet.SiteIndianapolis, Config{Name: "b.org"}, memberAddr(simnet.SiteBloomington, "a.org"))
	if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b.org to pull broker-fsu", func() bool { return b.BrokerCount() == 1 })
	if b.tel.adsMerged.Value() == 0 {
		t.Fatal("b.org lists the broker without having merged it")
	}
}

// TestMemberCatchesUpAfterPartition: a registration made while two members
// could not reach each other reaches the cut-off one once the cut heals.
func TestMemberCatchesUpAfterPartition(t *testing.T) {
	e := newEnv(t, 55)
	a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
	b := e.member(simnet.SiteIndianapolis, Config{Name: "b.org"}, memberAddr(simnet.SiteBloomington, "a.org"))
	e.net.Partition(simnet.SiteBloomington, simnet.SiteIndianapolis)
	if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, a, 1)
	e.net.Clock().Sleep(3 * exchangeEvery)
	if b.BrokerCount() != 0 {
		t.Fatalf("b.org pulled across the partition: %v", b.Brokers())
	}
	e.net.Heal(simnet.SiteBloomington, simnet.SiteIndianapolis)
	waitFor(t, "b.org to pull broker-fsu after the heal", func() bool { return b.BrokerCount() == 1 })
}

// TestRestartedMemberPullsWhatItMissed: a member that was down while a broker
// registered with the others lists that broker after it restarts, from its
// first pull.
func TestRestartedMemberPullsWhatItMissed(t *testing.T) {
	e := newEnv(t, 56)
	cfg := Config{Name: "b.org", DataDir: filepath.Join(t.TempDir(), "b")}
	a := e.member(simnet.SiteBloomington, Config{Name: "a.org"}, memberAddr(simnet.SiteIndianapolis, "b.org"))
	b := e.member(simnet.SiteIndianapolis, cfg, memberAddr(simnet.SiteBloomington, "a.org"))
	b.Close()
	if err := e.broker(simnet.SiteFSU, "broker-fsu").RegisterWithBDN(a.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, a, 1)
	b = e.member(simnet.SiteIndianapolis, cfg, memberAddr(simnet.SiteBloomington, "a.org"))
	waitFor(t, "the restarted b.org to pull broker-fsu", func() bool { return b.BrokerCount() == 1 })
}

// TestSupervisedRegistrationWaitsForLateBDN: a supervised broker that
// registers with a BDN before anything listens at its address gets the error,
// and is listed once a BDN comes up there — its supervisor kept dialling.
func TestSupervisedRegistrationWaitsForLateBDN(t *testing.T) {
	e := newEnv(t, 57)
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
	waitFor(t, "the late BDN to list the broker", func() bool { return d.BrokerCount() == 1 })
}
