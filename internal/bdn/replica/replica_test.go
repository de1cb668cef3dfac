package replica

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/simnet"
	"narada/internal/supervise"
	"narada/internal/transport"
	"narada/internal/wal"
)

// testLease is deliberately generous: the simulation clock advances virtual
// time in leaps whenever goroutines do real work (WAL file I/O, channel
// handoffs), so a tight lease would expire between heartbeats and churn
// elections. Simulated seconds cost ~milliseconds of wall time.
const testLease = 4 * time.Second

// testPolicy redials dead peer sessions fast so failover tests converge
// within a few simulated seconds.
var testPolicy = supervise.Policy{
	BaseBackoff: 50 * time.Millisecond,
	MaxBackoff:  200 * time.Millisecond,
}

type env struct {
	net   *simnet.Network
	t     *testing.T
	rng   *rand.Rand
	lease time.Duration // of the members built from here on
}

func newEnv(t *testing.T, seed int64) *env {
	return &env{
		net:   simnet.NewPaperWAN(simnet.Config{Scale: 300, Seed: seed}),
		t:     t,
		rng:   rand.New(rand.NewSource(seed)),
		lease: testLease,
	}
}

func (e *env) sleep(d time.Duration) { e.net.Clock().Sleep(d) }

// member bundles one cluster node: a durable BDN plus its replication agent.
type member struct {
	name string
	dir  string
	node *transport.SimNode
	ntp  *ntptime.Service
	d    *bdn.BDN
	r    *Replica
}

func (e *env) newMember(name, dir string) *member {
	e.t.Helper()
	return e.newMemberAt(simnet.SiteBloomington, name, dir)
}

func (e *env) newMemberAt(site, name, dir string) *member {
	e.t.Helper()
	skew := e.net.RandomSkew(20 * time.Millisecond)
	node := transport.NewSimNode(e.net, site, name, skew)
	ntp := ntptime.NewService(node.Clock(), skew, e.rng)
	ntp.InitImmediately()
	return e.newMemberOn(node, ntp, name, dir)
}

// newMemberOn rebuilds a member on an existing node — the restart shape,
// where the data dir survives but listeners rebind on fresh ports.
func (e *env) newMemberOn(node *transport.SimNode, ntp *ntptime.Service, name, dir string) *member {
	e.t.Helper()
	// SyncNever: a real fsync costs milliseconds of wall time, which the
	// accelerated simulation clock turns into whole simulated seconds —
	// longer than the election lease. Durability is not what these tests
	// probe; the persistence suite covers it against a real-time clock.
	d, err := bdn.New(node, ntp, bdn.Config{
		Name:           name,
		DataDir:        dir,
		Fsync:          wal.SyncNever,
		InjectOverhead: time.Millisecond,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		e.t.Fatal(err)
	}
	var logger *slog.Logger
	if testing.Verbose() {
		logger = slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	r, err := New(Config{
		Name:   name,
		Node:   node,
		Store:  d,
		Lease:  e.lease,
		Policy: testPolicy,
		Handle: obs.Handle{Logger: logger},
	})
	if err != nil {
		e.t.Fatal(err)
	}
	return &member{name: name, dir: dir, node: node, ntp: ntp, d: d, r: r}
}

func (m *member) stop() {
	m.r.Close()
	m.d.Close()
}

// cluster builds n members at one site, wires the full peer mesh, and starts
// them.
func (e *env) cluster(n int) []*member {
	e.t.Helper()
	sites := make([]string, n)
	for i := range sites {
		sites[i] = simnet.SiteBloomington
	}
	return e.clusterAt(sites...)
}

// clusterAt is cluster with member i at sites[i].
func (e *env) clusterAt(sites ...string) []*member {
	e.t.Helper()
	n := len(sites)
	members := make([]*member, n)
	for i := range members {
		name := fmt.Sprintf("repl-%c", 'a'+i)
		members[i] = e.newMemberAt(sites[i], name, filepath.Join(e.t.TempDir(), name))
	}
	for i, m := range members {
		peers := make([]string, 0, n-1)
		for j, p := range members {
			if j != i {
				peers = append(peers, p.r.Addr())
			}
		}
		if err := m.r.Start(peers); err != nil {
			e.t.Fatal(err)
		}
		m := m
		e.t.Cleanup(m.stop)
	}
	return members
}

func (e *env) broker(site, name string) *broker.Broker {
	e.t.Helper()
	skew := e.net.RandomSkew(20 * time.Millisecond)
	node := transport.NewSimNode(e.net, site, name, skew)
	ntp := ntptime.NewService(node.Clock(), skew, e.rng)
	ntp.InitImmediately()
	b, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: name,
		Realm:          site,
		Sampler: metrics.NewStaticSampler(metrics.Usage{
			TotalMemBytes: 512 << 20, UsedMemBytes: 64 << 20,
		}),
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

// primaryOf returns the unique primary among live members, or nil.
func primaryOf(members []*member) *member {
	var got *member
	for _, m := range members {
		if m.r.IsPrimary() {
			if got != nil {
				return nil // dual primary: not settled
			}
			got = m
		}
	}
	return got
}

// waitFor polls cond against a wall-clock deadline: the tests wait on the
// state a step leaves behind, not on a count of model-time leases that a busy
// host stretches (the awaitBrokers shape of internal/bdn).
func (e *env) waitFor(cond func() bool, format string, args ...any) {
	e.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			e.t.Fatalf(format, args...)
		}
	}
}

// waitPrimary waits until exactly one of members is primary.
func (e *env) waitPrimary(members []*member) *member {
	e.t.Helper()
	var p *member
	e.waitFor(func() bool { p = primaryOf(members); return p != nil }, "no single primary")
	return p
}

// waitFollow waits until m acknowledges leader as its primary.
func (e *env) waitFollow(m, leader *member) {
	e.t.Helper()
	e.waitFor(func() bool { return m.r.LeaderAddr() == leader.r.Addr() && !m.r.IsPrimary() },
		"%s does not follow %q", m.name, leader.r.Addr())
}

func (e *env) waitCount(m *member, want int) {
	e.t.Helper()
	e.waitFor(func() bool { return m.d.BrokerCount() == want }, "%s: BrokerCount never reached %d", m.name, want)
}

func TestBootstrapElectsLowestAddress(t *testing.T) {
	e := newEnv(t, 101)
	members := e.cluster(3)
	p := e.waitPrimary(members)
	if p != members[0] {
		t.Fatalf("primary = %s, want %s (lowest address)", p.name, members[0].name)
	}
	for _, m := range members[1:] {
		e.waitFollow(m, p)
	}
	if p.r.Epoch() == 0 {
		t.Fatal("promotion did not advance the epoch")
	}
}

func TestPrimaryStreamsRegistrationsToStandbys(t *testing.T) {
	e := newEnv(t, 102)
	members := e.cluster(3)
	p := e.waitPrimary(members)
	b := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := b.RegisterWithBDN(p.d.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		e.waitCount(m, 1)
	}
}

// TestStandbyCatchesUpAfterPartition: a record the primary appends while a
// standby is cut off reaches that standby once the path heals, in the same
// epoch. The broker registers with the primary only, so the stream is the
// standby's one way to learn it.
func TestStandbyCatchesUpAfterPartition(t *testing.T) {
	e := newEnv(t, 103)
	// The partition must not outlast a lease even when the host stalls: a
	// promotion would change what this test is about.
	e.lease = 8 * testLease
	members := e.clusterAt(simnet.SiteBloomington, simnet.SiteIndianapolis, simnet.SiteUMN)
	p := e.waitPrimary(members)
	cut := members[1]
	if p != members[0] {
		t.Fatalf("primary = %s, want %s (lowest address)", p.name, members[0].name)
	}
	e.waitFollow(cut, p)
	epoch := p.r.Epoch()

	// Cut for well under a lease, so nobody promotes, but until the other
	// standby has the record: the stream's send to the cut one, woken by
	// the same append, has met the partition by then.
	e.net.Partition(simnet.SiteBloomington, simnet.SiteIndianapolis)
	b := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := b.RegisterWithBDN(p.d.Addr()); err != nil {
		t.Fatal(err)
	}
	e.waitCount(members[2], 1)
	e.net.Heal(simnet.SiteBloomington, simnet.SiteIndianapolis)

	e.waitCount(cut, 1)
	if !p.r.IsPrimary() || cut.r.Epoch() != epoch {
		t.Fatalf("leadership changed across the partition: primary %v, epoch %d → %d", p.r.IsPrimary(), epoch, cut.r.Epoch())
	}
}

func TestFailoverPromotesStandbyWithFullTable(t *testing.T) {
	e := newEnv(t, 104)
	members := e.cluster(3)
	p := e.waitPrimary(members)
	oldEpoch := p.r.Epoch()

	b := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := b.RegisterWithBDN(p.d.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		e.waitCount(m, 1)
	}

	p.stop()
	survivors := make([]*member, 0, 2)
	for _, m := range members {
		if m != p {
			survivors = append(survivors, m)
		}
	}
	next := e.waitPrimary(survivors)
	if next.r.Epoch() <= oldEpoch {
		t.Fatalf("promoted epoch %d not above old %d", next.r.Epoch(), oldEpoch)
	}
	// The promoted standby already holds the registration — no re-register.
	if next.d.BrokerCount() != 1 {
		t.Fatalf("promoted standby lost the table: BrokerCount = %d", next.d.BrokerCount())
	}
	for _, m := range survivors {
		if m != next {
			e.waitFollow(m, next)
		}
	}
}

func TestRestartedPrimaryRejoinsAsStandby(t *testing.T) {
	e := newEnv(t, 105)
	members := e.cluster(3)
	p := e.waitPrimary(members)

	b := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := b.RegisterWithBDN(p.d.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		e.waitCount(m, 1)
	}

	p.stop()
	survivors := make([]*member, 0, 2)
	for _, m := range members {
		if m != p {
			survivors = append(survivors, m)
		}
	}
	next := e.waitPrimary(survivors)

	// Bring the old primary back on its original data dir: it recovers its
	// table from the WAL, hears the new leader's higher epoch, and stays a
	// standby.
	back := e.newMemberOn(p.node, p.ntp, p.name, p.dir)
	peers := make([]string, 0, 2)
	for _, m := range survivors {
		peers = append(peers, m.r.Addr())
	}
	if err := back.r.Start(peers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(back.stop)
	if back.d.BrokerCount() != 1 {
		t.Fatalf("restart lost the table: BrokerCount = %d", back.d.BrokerCount())
	}
	e.sleep(6 * testLease)
	if back.r.IsPrimary() && next.r.IsPrimary() {
		t.Fatal("dual primary persisted after rejoin")
	}
	all := append(append([]*member{}, survivors...), back)
	final := e.waitPrimary(all)
	if got := back.r.LeaderAddr(); back != final && got != final.r.Addr() {
		t.Fatalf("rejoined member follows %q, want %q", got, final.r.Addr())
	}
}

func TestLateStarterCatchesUpViaSnapshot(t *testing.T) {
	// Three members are configured, but repl-z stays down while the other
	// two elect a leader, take a registration, and compact the WAL behind
	// it. When repl-z finally starts, its from-the-beginning fetch can't be
	// served from records and must fall back to a full snapshot transfer.
	e := newEnv(t, 106)
	a := e.newMember("repl-a", filepath.Join(t.TempDir(), "repl-a"))
	b := e.newMember("repl-b", filepath.Join(t.TempDir(), "repl-b"))
	z := e.newMember("repl-z", filepath.Join(t.TempDir(), "repl-z"))
	if err := a.r.Start([]string{b.r.Addr(), z.r.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.r.Start([]string{a.r.Addr(), z.r.Addr()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.stop)
	t.Cleanup(b.stop)

	p := e.waitPrimary([]*member{a, b})
	bk := e.broker(simnet.SiteFSU, "broker-fsu")
	if err := bk.RegisterWithBDN(p.d.Addr()); err != nil {
		t.Fatal(err)
	}
	e.waitCount(p, 1)
	if err := p.d.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	if err := z.r.Start([]string{a.r.Addr(), b.r.Addr()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(z.stop)
	e.waitCount(z, 1)
}
