package bdn

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/uuid"
)

// restart closes the BDN and brings up a fresh one over the same data
// directory (new sim node, same name/config), as after a process restart.
func (e *env) restart(d *BDN, cfg Config) *BDN {
	e.t.Helper()
	d.Close()
	return e.bdn(cfg)
}

// crash tears the BDN down WITHOUT the graceful final snapshot, so recovery
// has to work from the last periodic snapshot plus the WAL suffix — the
// kill -9 shape.
func (e *env) crash(d *BDN, cfg Config) *BDN {
	e.t.Helper()
	d.mu.Lock()
	p := d.persist
	d.persist = nil
	d.mu.Unlock()
	if p != nil {
		_ = p.log.Close()
	}
	d.Close()
	return e.bdn(cfg)
}

// awaitBrokers blocks until n registrations have landed in d. Registration
// is asynchronous, and the model-time sleeps these tests used to rely on are
// a few milliseconds of wall time — not always enough on a busy host.
func awaitBrokers(t *testing.T, d *BDN, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); d.BrokerCount() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("BrokerCount = %d, want %d", d.BrokerCount(), n)
		}
	}
}

func TestRestartRecoversRegistry(t *testing.T) {
	e := newEnv(t, 40)
	cfg := Config{Name: "durable.org", DataDir: t.TempDir(), AdTTL: time.Hour}
	d := e.bdn(cfg)
	b1 := e.broker(simnet.SiteFSU, "broker-fsu")
	b2 := e.broker(simnet.SiteIndianapolis, "broker-indy")
	if err := b1.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b2.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 2)
	before := d.Brokers()

	d2 := e.restart(d, cfg)
	if d2.BrokerCount() != 2 {
		t.Fatalf("post-restart BrokerCount = %d, want 2", d2.BrokerCount())
	}
	after := d2.Brokers()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered table differs:\n before %+v\n after  %+v", before, after)
	}
	// TTLs must be intact: both registrations carry a live deadline roughly
	// an hour out, not zero and not already lapsed.
	now := d2.node.Clock().Now()
	d2.mu.Lock()
	for logical, r := range d2.brokers {
		if r.expiresAt.IsZero() {
			t.Errorf("%s recovered without a deadline", logical)
		} else if rem := r.expiresAt.Sub(now); rem < 50*time.Minute || rem > time.Hour {
			t.Errorf("%s recovered with remaining %s, want ~1h", logical, rem)
		}
	}
	d2.mu.Unlock()
}

func TestSnapshotReplayEquivalence(t *testing.T) {
	// Snapshot + WAL-suffix replay must rebuild exactly the in-memory store:
	// part of the table lands in the snapshot, the rest only in the log.
	e := newEnv(t, 41)
	cfg := Config{Name: "equiv.org", DataDir: t.TempDir(), AdTTL: time.Hour}
	d := e.bdn(cfg)
	b1 := e.broker(simnet.SiteFSU, "broker-a")
	if err := b1.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)
	if err := d.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot live only in the WAL suffix.
	b2 := e.broker(simnet.SiteCardiff, "broker-b")
	if err := b2.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	d.SetRequiredCredential([]byte("s3cret"))
	d.SetEpoch(7)
	awaitBrokers(t, d, 2)
	before := d.Brokers()
	if len(before) != 2 {
		t.Fatalf("pre-restart table %v", before)
	}

	// Crash rather than close: recovery must come from the mid-run snapshot
	// plus the WAL suffix, not a graceful final snapshot.
	d2 := e.crash(d, cfg)
	if got := d2.Brokers(); !reflect.DeepEqual(before, got) {
		t.Fatalf("replayed table differs:\n before %+v\n after  %+v", before, got)
	}
	if !bytes.Equal(d2.Credential(), []byte("s3cret")) {
		t.Fatalf("credential not recovered: %q", d2.Credential())
	}
	if d2.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", d2.Epoch())
	}
}

func TestSweepDeleteIsDurable(t *testing.T) {
	e := newEnv(t, 42)
	cfg := Config{Name: "sweep.org", DataDir: t.TempDir(),
		AdTTL: 2 * time.Second, SweepInterval: 200 * time.Millisecond}
	d := e.bdn(cfg)
	b := e.broker(simnet.SiteFSU, "broker-gone")
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)
	b.Close() // stop refreshes so the registration ages out
	e.net.Clock().Sleep(5 * time.Second)
	if d.BrokerCount() != 0 {
		t.Fatalf("expired broker still listed (%d)", d.BrokerCount())
	}
	d2 := e.restart(d, cfg)
	if d2.BrokerCount() != 0 {
		t.Fatalf("swept broker resurrected by recovery (%d)", d2.BrokerCount())
	}
}

func TestClockJumpAcrossRestartDoesNotMassSweep(t *testing.T) {
	// Regression for the sweep/restart interaction: deadlines are persisted
	// as remaining-duration against the snapshot's monotonic base, so a
	// clock step (here: an hour of downtime) between crash and restart must
	// NOT sweep the recovered ads — they get their remaining TTL back.
	e := newEnv(t, 43)
	cfg := Config{Name: "jump.org", DataDir: t.TempDir(),
		AdTTL: 10 * time.Second, SweepInterval: 100 * time.Millisecond}
	d := e.bdn(cfg)
	b := e.broker(simnet.SiteFSU, "broker-jump")
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)
	d.Close()
	b.Close() // no refreshes during or after the jump

	// The clock leaps an hour while the BDN is down.
	e.net.Clock().Sleep(time.Hour)

	d2 := e.bdn(cfg)
	// Give the sweeper several cycles: with absolute-deadline persistence
	// the recovered ad would be >59min past its deadline and swept at once.
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
}

func TestRecordCodecRoundTrip(t *testing.T) {
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1", Realm: "x"}}
	payload := core.EncodeAdvertisement(ad)
	cases := [][]byte{
		encodeUpsert(payload, true, 42*time.Second),
		encodeUpsert(payload, false, 0),
		encodeDelete("b1", "expired"),
		encodeCredential([]byte("cred")),
		encodeCredential(nil),
		encodeEpoch(99),
		encodeApplied("gsl.org", 1234),
	}
	for i, b := range cases {
		rec, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		reenc := map[byte]func() []byte{
			recUpsert:     func() []byte { return encodeUpsert(rec.adPayload, rec.hasDeadline, rec.remaining) },
			recDelete:     func() []byte { return encodeDelete(rec.logical, rec.reason) },
			recCredential: func() []byte { return encodeCredential(rec.cred) },
			recEpoch:      func() []byte { return encodeEpoch(rec.epoch) },
			recApplied:    func() []byte { return encodeApplied(rec.source, rec.index) },
		}[rec.typ]()
		if !bytes.Equal(reenc, b) {
			t.Fatalf("case %d: re-encode mismatch", i)
		}
	}
	for _, garbage := range [][]byte{nil, {}, {recVersion}, {recVersion, 99}, {7, recUpsert, 0}} {
		if _, err := decodeRecord(garbage); err == nil {
			t.Fatalf("decodeRecord(%v) accepted garbage", garbage)
		}
	}
}

func TestStateCodecRebasesDeadlines(t *testing.T) {
	base := time.Unix(1000, 0)
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1"}}
	st := &persistState{
		monoBase: base,
		wall:     base,
		epoch:    3,
		credSet:  true,
		cred:     []byte("k"),
		applied:  map[string]uint64{"p": 12},
		ads: []stateAd{{
			payload:     core.EncodeAdvertisement(ad),
			hasDeadline: true,
			remaining:   30 * time.Second,
			distance:    5 * time.Millisecond,
		}},
	}
	got, err := decodeState(encodeState(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.epoch != 3 || !got.credSet || string(got.cred) != "k" || got.applied["p"] != 12 {
		t.Fatalf("decoded header %+v", got)
	}
	if len(got.ads) != 1 || !got.ads[0].hasDeadline || got.ads[0].remaining != 30*time.Second {
		t.Fatalf("decoded ads %+v", got.ads)
	}
	if _, err := decodeState([]byte{0xFF, 0x01}); err == nil {
		t.Fatal("decodeState accepted garbage")
	}
}

func TestApplyReplicatedIsIdempotentAndHookFree(t *testing.T) {
	e := newEnv(t, 44)
	cfg := Config{Name: "apply.org", DataDir: t.TempDir()}
	d := e.bdn(cfg)
	hooked := 0
	d.SetMutationHook(func([]byte) { hooked++ })

	ad := &core.Advertisement{
		Broker:   core.BrokerInfo{LogicalAddress: "replicated-broker"},
		IssuedAt: time.Unix(0, 0),
		TTL:      time.Hour,
	}
	rec := encodeUpsert(core.EncodeAdvertisement(ad), true, time.Hour)
	if err := d.ApplyReplicated("primary", 5, rec); err != nil {
		t.Fatal(err)
	}
	if d.BrokerCount() != 1 {
		t.Fatalf("BrokerCount = %d", d.BrokerCount())
	}
	// Duplicate delivery of the same index is a no-op.
	if err := d.ApplyReplicated("primary", 5, rec); err != nil {
		t.Fatal(err)
	}
	if d.AppliedIndex("primary") != 5 {
		t.Fatalf("AppliedIndex = %d", d.AppliedIndex("primary"))
	}
	if hooked != 0 {
		t.Fatalf("replicated apply fired the mutation hook %d times", hooked)
	}
	// Replicated delete removes it.
	if err := d.ApplyReplicated("primary", 6, encodeDelete("replicated-broker", "expired")); err != nil {
		t.Fatal(err)
	}
	if d.BrokerCount() != 0 {
		t.Fatal("replicated delete ignored")
	}
}

func TestReplicaSnapshotInstallTransfersTable(t *testing.T) {
	e := newEnv(t, 45)
	src := e.bdn(Config{Name: "src.org", DataDir: t.TempDir(), AdTTL: time.Hour})
	b := e.broker(simnet.SiteFSU, "broker-xfer")
	if err := b.RegisterWithBDN(src.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, src, 1)
	idx, state := src.ReplicaSnapshot()
	if idx == 0 || len(state) == 0 {
		t.Fatalf("ReplicaSnapshot = (%d, %d bytes)", idx, len(state))
	}

	dst := e.bdn(Config{Name: "dst.org", DataDir: t.TempDir()})
	if err := dst.InstallReplicaState("src.org", idx, state); err != nil {
		t.Fatal(err)
	}
	if dst.BrokerCount() != 1 || dst.Brokers()[0].LogicalAddress != "broker-xfer" {
		t.Fatalf("installed table %v", dst.Brokers())
	}
	if dst.AppliedIndex("src.org") != idx {
		t.Fatalf("AppliedIndex = %d, want %d", dst.AppliedIndex("src.org"), idx)
	}
}

func TestDurableCredentialGatesRequests(t *testing.T) {
	e := newEnv(t, 46)
	cfg := Config{Name: "priv.org", DataDir: t.TempDir(), Private: true,
		RequiredCredential: []byte("old")}
	d := e.bdn(cfg)
	d.SetRequiredCredential([]byte("new"))
	d2 := e.restart(d, cfg)
	if string(d2.Credential()) != "new" {
		t.Fatalf("credential after restart = %q", d2.Credential())
	}
	req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "client", Credentials: []byte("new")}
	if ack := requestViaBDN(t, e, d2, req); ack == nil {
		t.Fatal("request with durable credential not acked")
	}
}
