//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package bdn

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
	"narada/internal/wal"
)

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the network's, so model time moves only while every goroutine in the bubble
// waits, and a registration's validity is exact. f runs as a subtest, so the
// cleanups it registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

// advance lets d of model time pass and everything it woke settle.
func advance(d time.Duration) {
	time.Sleep(d)
	synctest.Wait()
}

func laneEnv(t *testing.T, seed int64) *env {
	return &env{net: simnet.NewPaperWAN(simnet.Config{Seed: seed}), t: t, rng: rand.New(rand.NewSource(seed))}
}

// TestMergeSkipsWhatThisMemberExpired: a member that expired a registration
// does not take it back from a peer that heard the same advertisement later
// and still lists it — not before a restart and not after one — but takes the
// broker's next advertisement. The broker's clock runs 5 s ahead, so the
// advertisement could still be live and only the tombstone refuses it.
func TestMergeSkipsWhatThisMemberExpired(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 50)
		start := e.net.Clock().Now()
		dir := t.TempDir()
		m, p := quietPair(t, e.net, Config{DataDir: dir})
		ad := brokerAd("b1", "r", start.Add(5*time.Second), 10*time.Second)
		register(m, ad)
		advance(5 * time.Second)
		register(p, ad) // the same advertisement, five seconds later
		advance(6 * time.Second)
		m.sweep()
		if m.BrokerCount() != 0 || p.BrokerCount() != 1 {
			t.Fatalf("member lists %d, peer %d; want 0 and 1", m.BrokerCount(), p.BrokerCount())
		}
		pullInto(t, m, p)
		if m.BrokerCount() != 0 {
			t.Fatalf("expired registration merged back from the peer: %v", m.Brokers())
		}

		// The tombstone is a record: a restart over the data directory keeps it.
		m.Close()
		m2 := openQuiet(t, e.net, "member-again", Config{DataDir: dir})
		pullInto(t, m2, p)
		if m2.BrokerCount() != 0 {
			t.Fatalf("expired registration merged back after a restart: %v", m2.Brokers())
		}

		register(p, brokerAd("b1", "r", start.Add(16*time.Second), 10*time.Second))
		pullInto(t, m2, p)
		if left := remainingTTLs(m2)["b1"]; left != 10*time.Second {
			t.Fatalf("the broker's next advertisement merged with %s left, want 10s", left)
		}
	})
}

// TestMergeSkipsRecoveredCopyOfDeadBroker: a peer restarted from disk lists
// what it recovered with the validity it had left, however long it was down.
// A copy whose advertisement was issued more than a TTL ago cannot be live,
// and a member that never heard of the broker does not take it.
func TestMergeSkipsRecoveredCopyOfDeadBroker(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 58)
		start := e.net.Clock().Now()
		dir := t.TempDir()
		p := openQuiet(t, e.net, "peer", Config{DataDir: dir})
		register(p, brokerAd("dead", "r", start, 10*time.Second))
		p.Close()
		advance(time.Minute) // the broker died; the peer was down
		p = openQuiet(t, e.net, "peer-again", Config{DataDir: dir})
		register(p, brokerAd("live", "r", start.Add(time.Minute), 10*time.Second))
		if p.BrokerCount() != 2 {
			t.Fatalf("restarted peer lists %v, want dead and live", p.Brokers())
		}
		m := openQuiet(t, e.net, "member", Config{})
		pullInto(t, m, p)
		if got := m.Brokers(); len(got) != 1 || got[0].LogicalAddress != "live" {
			t.Fatalf("merged %v, want live alone", got)
		}
	})
}

// TestMergeCapsValidity: a merged entry keeps what the peer had left, and
// never more than the advertisement's own TTL.
func TestMergeCapsValidity(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 51)
		m, p := quietPair(t, e.net, Config{})
		register(p, brokerAd("short", "r", e.net.Clock().Now(), time.Hour)) // an hour at the peer, as here
		advance(15 * time.Second)
		pullInto(t, m, p)
		if ttls := remainingTTLs(m); ttls["short"] != time.Hour-15*time.Second {
			t.Fatalf("merged validity %v, want short: 59m45s", ttls)
		}
	})
}

// TestSnapshotReplayEquivalence is the differential test behind "a registry
// mutation is a record": every road into the table yields the same table. A
// seeded random sequence of register / refresh / expiry sweep / snapshot /
// entry merged from a peer's table runs live on L, and time passes only when
// the test sleeps. X is fed by table exchange alone: after every step it merges L's
// table. W restarts over L's WAL alone and S over its snapshot plus the WAL
// suffix. All four must agree on Brokers, no deleted broker may be back on
// any road, and merging L's table into X once more must change nothing.
// Remaining TTLs are equal on the live roads; a restart re-anchors each
// deadline at recovery + the validity its last record (or the snapshot)
// carried, and the test says exactly that of W and S. Each seed is a
// parallel subtest seed=N in a bubble of its own, so a failing one is named
// and reruns alone with -run.
func TestSnapshotReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			exact(t, func(t *testing.T) { differentialRun(t, laneEnv(t, 41), seed) })
		})
	}
}

func differentialRun(t *testing.T, e *env, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := e.net.Clock()
	root := t.TempDir()
	open := func(road, name string) *BDN {
		node := transport.NewSimNode(e.net, simnet.SiteBloomington, fmt.Sprintf("bdn-%d-%s", seed, road), 0)
		ntp := ntptime.NewService(node.Clock(), 0, nil)
		ntp.InitImmediately()
		// The sweeper never fires on its own: only L sweeps, when the test says.
		d, err := New(node, ntp, Config{Name: name, DataDir: filepath.Join(root, road),
			Fsync: wal.SyncNever, SweepInterval: 1000 * time.Hour, InjectOverhead: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatalf("seed %d: road %s: %v", seed, road, err)
		}
		return d
	}
	L, X := open("L", "L"), open("X", "X")
	defer L.Close()
	defer X.Close()

	// The model: what each broker's last upsert said, and when.
	type upsert struct {
		seq int
		at  time.Time
		ttl time.Duration // 0 = no deadline
	}
	var (
		model   = map[string]upsert{}
		gone    = map[string]bool{} // deleted and not registered again
		snapAt  time.Time
		snapped map[string]upsert
		seq     int
	)
	// put is a broker's next advertisement, issued now and after the last.
	put := func(logical string, ttl time.Duration) record {
		seq++
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: logical, Realm: "r"},
			IssuedAt: clock.Now().Add(time.Duration(seq)), TTL: ttl}
		model[logical] = upsert{seq, clock.Now(), ttl}
		delete(gone, logical)
		return upsertRecord(ad, core.EncodeAdvertisement(ad), ttl > 0, ttl)
	}
	sweep := func() {
		now := clock.Now()
		for logical, u := range model {
			if u.ttl > 0 && now.After(u.at.Add(u.ttl)) {
				delete(model, logical)
				gone[logical] = true
			}
		}
		L.sweep()
	}
	randomTTL := func() time.Duration {
		if rng.Intn(5) == 0 {
			return 0
		}
		return time.Duration(1+rng.Intn(60)) * time.Second
	}

	// The run ends on a sweep: a registration that lapsed but was never swept
	// has no delete on disk, and a restart gives it its validity back.
	const ops = 40
	for op := 0; op <= ops; op++ {
		switch k := rng.Intn(10); {
		case op == ops:
			sweep()
		case k < 4: // a broker registers, or refreshes, with L
			logical := fmt.Sprintf("b%d", rng.Intn(8))
			rec := put(logical, randomTTL())
			L.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(rec.ad)), nil)
		case k < 6: // time passes and L sweeps
			advance(time.Duration(rng.Intn(30)) * time.Second)
			sweep()
		case k < 7:
			if err := L.SnapshotNow(); err != nil {
				t.Fatalf("seed %d: SnapshotNow: %v", seed, err)
			}
			snapAt, snapped = clock.Now(), map[string]upsert{}
			for logical, u := range model {
				snapped[logical] = u
			}
		default: // a broker L only hears of from a peer's table
			rec := put(fmt.Sprintf("u%d", rng.Intn(4)), randomTTL())
			L.merge([]record{rec})
		}
		pullInto(t, X, L)
	}

	// Restart roads: W over the WAL alone, S over snapshot + suffix.
	for _, road := range []string{"W", "S"} {
		if err := os.Mkdir(filepath.Join(root, road), 0o755); err != nil {
			t.Fatal(err)
		}
		files, _ := os.ReadDir(filepath.Join(root, "L"))
		for _, f := range files {
			if road == "W" && strings.HasPrefix(f.Name(), "snap-") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(root, "L", f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, road, f.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	W, S := open("W", "L"), open("S", "L")
	defer W.Close()
	defer S.Close()

	want, live := L.Brokers(), remainingTTLs(L)
	if len(want) != len(model) {
		t.Fatalf("seed %d: L lists %d brokers, the model %d", seed, len(want), len(model))
	}
	for road, d := range map[string]*BDN{"W": W, "S": S, "X": X} {
		if got := d.Brokers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: road %s table differs:\n L %+v\n %s %+v", seed, road, want, road, got)
		}
		for _, b := range d.Brokers() {
			if gone[b.LogicalAddress] {
				t.Fatalf("seed %d: road %s: deleted broker %s is back", seed, road, b.LogicalAddress)
			}
		}
		ttls := remainingTTLs(d)
		for logical, u := range model {
			wantTTL := live[logical] // the live roads: same clock, same deadline
			switch {
			case u.ttl == 0:
				wantTTL = -1
			case road == "W" || road == "S":
				wantTTL = u.ttl // re-anchored at recovery
				if road == "S" && snapped[logical].seq == u.seq {
					wantTTL = u.at.Add(u.ttl).Sub(snapAt) // what was left at capture
				}
			}
			if ttls[logical] != wantTTL {
				t.Fatalf("seed %d: road %s: %s has %s left, want %s (L %s)",
					seed, road, logical, ttls[logical], wantTTL, live[logical])
			}
		}
	}

	// Another pull of the same table is a no-op: nothing merged, nothing logged.
	before := walLast(X)
	pullInto(t, X, L)
	if after := walLast(X); after != before || !reflect.DeepEqual(remainingTTLs(X), live) {
		t.Fatalf("seed %d: pulling L's table again changed X: wal %d → %d", seed, before, after)
	}
}

func TestIdempotentRequests(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 6)
		d := e.bdn(Config{Name: "gsl.org"})
		b := e.broker(simnet.SiteIndianapolis, "broker-indy")
		_ = b.RegisterWithBDN(d.Addr())
		advance(time.Second)

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
		// Exactly one response arrives: the one the first request's injection
		// drew, already on its way while the second request was acked.
		start := time.Now()
		if _, _, err := pc.RecvTimeout(3 * time.Second); err != nil {
			t.Fatal("no response")
		}
		if got, want := time.Since(start), 2800*time.Microsecond; got != want {
			t.Errorf("the response came %v after the second ack, want %v", got, want)
		}
		if _, _, err := pc.RecvTimeout(time.Minute); err == nil {
			t.Fatal("duplicate response after idempotent retransmission")
		}
	})
}

// TestIdleRequesterSessionIsReaped: the BDN closes a requester session that
// has been silent for requesterIdle, and the requester's next discovery
// redials without counting a retransmission.
func TestIdleRequesterSessionIsReaped(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 13)
		d := e.bdn(Config{Name: "gsl.org"})
		if err := e.broker(simnet.SiteIndianapolis, "broker-indy").RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		advance(time.Second)
		tracked := func() int {
			d.mu.Lock()
			defer d.mu.Unlock()
			return len(d.conns)
		}
		if n := tracked(); n != 1 {
			t.Fatalf("%d tracked connections with only the registration, want 1", n)
		}

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
		advance(requesterIdle)
		if n := tracked(); n != 1 {
			t.Fatalf("%d tracked connections a requesterIdle after the discovery, want the registration alone", n)
		}
		res, err := req.Discover()
		if err != nil {
			t.Fatal(err)
		}
		if res.Retransmits != 0 || res.BDN != "gsl.org" {
			t.Fatalf("after the reap: %d retransmits via %q, want 0 via gsl.org", res.Retransmits, res.BDN)
		}
	})
}

func TestClockJumpAcrossRestartDoesNotMassSweep(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Regression for the sweep/restart interaction: deadlines are persisted
		// as remaining-duration against the snapshot's monotonic base, so a
		// clock step (here: two minutes of downtime, 12× the TTL) between crash
		// and restart must NOT sweep the recovered ads — they get their
		// remaining TTL back.
		e := laneEnv(t, 43)
		cfg := Config{Name: "jump.org", DataDir: t.TempDir(), SweepInterval: 100 * time.Millisecond}
		d := e.bdn(cfg)
		b := e.brokerTTL(simnet.SiteFSU, "broker-jump", 10*time.Second)
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		advance(time.Second)
		if d.BrokerCount() != 1 {
			t.Fatalf("BDN lists %d brokers, want 1", d.BrokerCount())
		}
		d.Close()
		b.Close() // no refreshes during or after the jump

		// The clock leaps two minutes while the BDN is down.
		e.net.Clock().Sleep(2 * time.Minute)

		d2 := e.bdn(cfg)
		// Give the sweeper several cycles: with absolute-deadline persistence
		// the recovered ad would be about 110s past its deadline and swept at once.
		e.net.Clock().Sleep(time.Second)
		if d2.BrokerCount() != 1 {
			t.Fatalf("clock jump swept recovered registration (count=%d)", d2.BrokerCount())
		}
		// And the rebased deadline still works: with no refreshes the ad ages
		// out after its remaining TTL.
		e.net.Clock().Sleep(15 * time.Second)
		if d2.BrokerCount() != 0 {
			t.Fatal("rebased deadline never expired")
		}
	})
}

// TestPrivateBDNRefusesPullWithoutCredential: a private BDN serves its table
// only to a peer holding the credential its discovery requests need.
func TestPrivateBDNRefusesPullWithoutCredential(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 53)
		d := e.bdn(Config{Name: "private.corp", Private: true, RequiredCredential: []byte("badge")})
		b := e.broker(simnet.SiteIndianapolis, "broker-indy")
		if err := b.RegisterWithBDN(d.Addr()); err != nil {
			t.Fatal(err)
		}
		advance(time.Second)
		for _, cred := range []string{"", "forged"} {
			if recs := pullFrom(t, e, d, cred); recs != nil {
				t.Fatalf("pull with credential %q answered: %d records", cred, len(recs))
			}
		}
		if got := d.tel.pullsDenied.Value(); got != 2 {
			t.Fatalf("pulls denied = %d, want 2", got)
		}
		if recs := pullFrom(t, e, d, "badge"); len(recs) != 1 || recs[0].ad.Broker.LogicalAddress != "broker-indy" {
			t.Fatalf("pull with the credential answered %+v", recs)
		}
	})
}

func TestMeasureDistances(t *testing.T) {
	exact(t, func(t *testing.T) {
		e := laneEnv(t, 8)
		d := e.bdn(Config{Name: "gsl.org"})
		near := e.broker(simnet.SiteIndianapolis, "broker-near")
		far := e.broker(simnet.SiteCardiff, "broker-far")
		_ = near.RegisterWithBDN(d.Addr())
		_ = far.RegisterWithBDN(d.Addr())
		advance(time.Second)

		// One ping round trip each from the BDN at Bloomington: the paths' RTTs.
		want := map[string]time.Duration{"broker-near": 3 * time.Millisecond, "broker-far": 120 * time.Millisecond}
		if got := d.MeasureDistances(); !maps.Equal(got, want) {
			t.Fatalf("distances %v, want %v", got, want)
		}
	})
}
