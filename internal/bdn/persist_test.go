package bdn

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
	"narada/internal/wal"
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
	log := d.log
	d.log = nil
	d.mu.Unlock()
	if log != nil {
		_ = log.Close()
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

// manualNode is a sim node whose clock the test moves by hand.
type manualNode struct {
	*transport.SimNode
	clock *ntptime.ManualClock
}

func (n manualNode) Clock() ntptime.Clock { return n.clock }

// remainingTTLs reads every unexpired registration's remaining validity (-1
// for one without a deadline) off d's clock.
func remainingTTLs(d *BDN) map[string]time.Duration {
	now := d.node.Clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]time.Duration{}
	for logical, r := range d.brokers {
		switch {
		case r.expiresAt.IsZero():
			out[logical] = -1
		case !r.expired(now):
			out[logical] = r.expiresAt.Sub(now)
		}
	}
	return out
}

// TestSnapshotReplayEquivalence is the differential test behind "a registry
// mutation is a record": every road into the table yields the same table. A
// seeded random sequence of register / refresh / expiry sweep / epoch bump /
// snapshot / upstream-replicated record runs live on L, on a clock only the
// test moves. R is fed L's records through ApplyReplicated as they are
// written; I installs L's ReplicaSnapshot at a random point and is fed the
// suffix; W restarts over L's WAL alone and S over its snapshot plus the WAL
// suffix. All five must agree on Brokers, Epoch and the upstream watermark,
// no deleted broker may be back on any road, and redelivering R's whole
// stream must change nothing. Remaining TTLs are equal on the live roads; a
// restart re-anchors each deadline at recovery + the validity its last record
// (or the snapshot) carried, and the test says exactly that of W and S.
func TestSnapshotReplayEquivalence(t *testing.T) {
	e := newEnv(t, 41)
	for seed := int64(0); seed < 200; seed++ {
		differentialRun(t, e, seed)
	}
}

func differentialRun(t *testing.T, e *env, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := ntptime.NewManualClock(time.Unix(1_000_000, 0))
	root := t.TempDir()
	open := func(road, name string) *BDN {
		node := transport.NewSimNode(e.net, simnet.SiteBloomington, fmt.Sprintf("bdn-%d-%s", seed, road), 0)
		ntp := ntptime.NewService(clock, 0, nil)
		ntp.InitImmediately()
		// The sweeper never fires on its own: only L sweeps, when the test says.
		d, err := New(manualNode{node, clock}, ntp, Config{Name: name, DataDir: filepath.Join(root, road),
			Fsync: wal.SyncNever, SweepInterval: 1000 * time.Hour, InjectOverhead: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatalf("seed %d: road %s: %v", seed, road, err)
		}
		return d
	}
	L, R, I := open("L", "L"), open("R", "R"), open("I", "I")
	defer L.Close()
	defer R.Close()
	defer I.Close()

	// feed streams L's records past dst's watermark, as a replica stream does.
	feed := func(dst *BDN, from uint64) {
		recs, err := L.ReadRecords(from, 1<<20)
		if err != nil {
			t.Fatalf("seed %d: ReadRecords(%d): %v", seed, from, err)
		}
		for i, rec := range recs {
			if err := dst.ApplyReplicated("L", from+uint64(i), rec); err != nil {
				t.Fatalf("seed %d: ApplyReplicated(%d): %v", seed, from+uint64(i), err)
			}
		}
	}

	// The model: what each broker's last upsert said, and when.
	type upsert struct {
		seq int
		at  time.Time
		ttl time.Duration // 0 = no deadline
	}
	var (
		model    = map[string]upsert{}
		gone     = map[string]bool{} // deleted and not registered again
		snapAt   time.Time
		snapped  map[string]upsert
		upstream uint64
		seq      int
	)
	put := func(logical string, ttl time.Duration) record {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: logical, Realm: "r"}, TTL: ttl}
		seq++
		model[logical] = upsert{seq, clock.Now(), ttl}
		delete(gone, logical)
		return upsertRecord(ad, core.EncodeAdvertisement(ad), ttl > 0, ttl)
	}
	drop := func(logical string) {
		if _, ok := model[logical]; ok {
			delete(model, logical)
			gone[logical] = true
		}
	}
	sweep := func() {
		now := clock.Now()
		for logical, u := range model {
			if u.ttl > 0 && now.After(u.at.Add(u.ttl)) {
				drop(logical)
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
	installAt := rng.Intn(ops)
	for op := 0; op <= ops; op++ {
		if op == installAt {
			idx, state := L.ReplicaSnapshot()
			if err := I.InstallReplicaState("L", idx, state); err != nil {
				t.Fatalf("seed %d: InstallReplicaState: %v", seed, err)
			}
		}
		switch k := rng.Intn(10); {
		case op == ops:
			sweep()
		case k < 4: // a broker registers, or refreshes, with L
			logical := fmt.Sprintf("b%d", rng.Intn(8))
			rec := put(logical, randomTTL())
			L.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(rec.ad)), nil)
		case k < 6: // time passes and L sweeps
			clock.Advance(time.Duration(rng.Intn(30)) * time.Second)
			sweep()
		case k < 7:
			L.SetEpoch(L.Epoch() + 1 + uint64(rng.Intn(3)))
		case k < 8:
			if err := L.SnapshotNow(); err != nil {
				t.Fatalf("seed %d: SnapshotNow: %v", seed, err)
			}
			snapAt, snapped = clock.Now(), map[string]upsert{}
			for logical, u := range model {
				snapped[logical] = u
			}
		default: // L is itself a standby of "up": an upsert or a delete streams in
			upstream++
			logical := fmt.Sprintf("u%d", rng.Intn(4))
			rec := deleteRecord(logical, "expired")
			if rng.Intn(3) > 0 {
				rec = put(logical, randomTTL())
			} else {
				drop(logical)
			}
			if err := L.ApplyReplicated("up", upstream, rec.enc); err != nil {
				t.Fatal(err)
			}
		}
		feed(R, R.AppliedIndex("L")+1)
		if op >= installAt {
			feed(I, I.AppliedIndex("L")+1)
		}
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

	_, lastL := L.WALRange()
	want, live := L.Brokers(), remainingTTLs(L)
	if len(want) != len(model) {
		t.Fatalf("seed %d: L lists %d brokers, the model %d", seed, len(want), len(model))
	}
	for road, d := range map[string]*BDN{"W": W, "S": S, "R": R, "I": I} {
		if got := d.Brokers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: road %s table differs:\n L %+v\n %s %+v", seed, road, want, road, got)
		}
		for _, b := range d.Brokers() {
			if gone[b.LogicalAddress] {
				t.Fatalf("seed %d: road %s: deleted broker %s is back", seed, road, b.LogicalAddress)
			}
		}
		if d.Epoch() != L.Epoch() {
			t.Fatalf("seed %d: road %s epoch %d, L %d", seed, road, d.Epoch(), L.Epoch())
		}
		if got := d.AppliedIndex("up"); got != upstream || L.AppliedIndex("up") != upstream {
			t.Fatalf("seed %d: road %s applied %d of upstream's %d (L %d)", seed, road, got, upstream, L.AppliedIndex("up"))
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
	for road, d := range map[string]*BDN{"R": R, "I": I} {
		if got := d.AppliedIndex("L"); got != lastL {
			t.Fatalf("seed %d: road %s applied %d of L's %d records", seed, road, got, lastL)
		}
	}

	// Redelivery of the whole stream is a no-op: nothing applied, nothing logged.
	_, before := R.WALRange()
	feed(R, 1)
	if _, after := R.WALRange(); after != before || !reflect.DeepEqual(remainingTTLs(R), live) {
		t.Fatalf("seed %d: replaying R's stream changed it: wal %d → %d", seed, before, after)
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
	// The registration lives 2s of model time, a few wall milliseconds: wait
	// for its record in the log, not for a poll to catch it listed.
	waitFor(t, "the registration's record", func() bool { _, last := d.WALRange(); return last > 0 })
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
	// clock step (here: two minutes of downtime, 12× the TTL) between crash
	// and restart must NOT sweep the recovered ads — they get their
	// remaining TTL back.
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
}

// reencode builds rec again from its decoded fields alone.
func reencode(rec record) record {
	switch rec.typ {
	case recUpsert:
		return upsertRecord(rec.ad, core.EncodeAdvertisement(rec.ad), rec.hasDeadline, rec.remaining)
	case recDelete:
		return deleteRecord(rec.logical, rec.reason)
	case recEpoch:
		return epochRecord(rec.epoch)
	}
	return appliedRecord(rec.source, rec.index)
}

// codecCases is one record of every type; the fuzzers start from them.
func codecCases() []record {
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1", Realm: "x"}}
	payload := core.EncodeAdvertisement(ad)
	return []record{
		upsertRecord(ad, payload, true, 42*time.Second),
		upsertRecord(ad, payload, false, 0),
		deleteRecord("b1", "expired"),
		epochRecord(99),
		appliedRecord("gsl.org", 1234),
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for i, c := range codecCases() {
		rec, err := decodeRecord(c.enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(reencode(rec).enc, c.enc) {
			t.Fatalf("case %d: re-encode mismatch", i)
		}
	}
	// {recVersion, 3, ...} is the durable credential a parent-written log may
	// still hold: undecodable now, so recovery warns and skips it.
	for _, garbage := range [][]byte{nil, {}, {recVersion}, {recVersion, 99}, {7, recUpsert, 0},
		{recVersion, 3, 1, 4, 'c', 'r', 'e', 'd'}} {
		if _, err := decodeRecord(garbage); err == nil {
			t.Fatalf("decodeRecord(%v) accepted garbage", garbage)
		}
	}
}

// TestStateCodecRebasesDeadlines: a snapshot body is the table in records, an
// upsert in it carries the validity left at capture, and installing it
// anchors the deadline at the installer's now.
func TestStateCodecRebasesDeadlines(t *testing.T) {
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1"}}
	body := encodeState([]record{epochRecord(3), appliedRecord("p", 12),
		upsertRecord(ad, core.EncodeAdvertisement(ad), true, 30*time.Second)})
	got, err := decodeState(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].epoch != 3 || got[1].source != "p" || got[1].index != 12 {
		t.Fatalf("decoded header %+v", got)
	}
	if up := got[2]; up.ad.Broker.LogicalAddress != "b1" || !up.hasDeadline || up.remaining != 30*time.Second {
		t.Fatalf("decoded upsert %+v", up)
	}
	for _, garbage := range [][]byte{nil, {0xFF, 0x01}, {1, 0}, {stateVersion, 200}, body[:len(body)-1]} {
		if _, err := decodeState(garbage); err == nil {
			t.Fatalf("decodeState(%v) accepted garbage", garbage)
		}
	}

	e := newEnv(t, 47)
	d := e.bdn(Config{Name: "install.org", DataDir: t.TempDir()})
	before := d.node.Clock().Now()
	if err := d.InstallReplicaState("p", 12, body); err != nil {
		t.Fatal(err)
	}
	left := remainingTTLs(d)["b1"]
	if elapsed := d.node.Clock().Now().Sub(before); left > 30*time.Second || left < 30*time.Second-elapsed {
		t.Fatalf("installed deadline leaves %s, want 30s from the install (%s ago)", left, elapsed)
	}
	if d.Epoch() != 3 || d.AppliedIndex("p") != 12 {
		t.Fatalf("installed epoch %d, applied %d", d.Epoch(), d.AppliedIndex("p"))
	}
}

// FuzzRegistryRecord: the two decoders that read what a disk or a peer holds
// never panic, an accepted record re-encodes to one that decodes the same,
// and a snapshot body cannot claim more records than it has bytes.
func FuzzRegistryRecord(f *testing.F) {
	cases := codecCases()
	for _, c := range cases {
		f.Add(c.enc)
	}
	f.Add(encodeState(cases))
	f.Add([]byte{stateVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeRecord(data); err == nil {
			again := reencode(rec)
			rec2, err := decodeRecord(again.enc)
			if err != nil {
				t.Fatalf("re-encoded record rejected: %v", err)
			}
			if !bytes.Equal(reencode(rec2).enc, again.enc) {
				t.Fatalf("record changed across a round trip: %x → %x", again.enc, reencode(rec2).enc)
			}
		}
		if recs, err := decodeState(data); err == nil {
			if len(recs) > len(data) {
				t.Fatalf("%d records out of %d bytes", len(recs), len(data))
			}
			vals := make([]record, len(recs))
			for i, rec := range recs {
				vals[i] = reencode(rec)
			}
			if back, err := decodeState(encodeState(vals)); err != nil || len(back) != len(recs) {
				t.Fatalf("re-encoded body: %d records, %v; want %d", len(back), err, len(recs))
			}
		}
	})
}

func TestApplyReplicatedIsIdempotent(t *testing.T) {
	e := newEnv(t, 44)
	cfg := Config{Name: "apply.org", DataDir: t.TempDir()}
	d := e.bdn(cfg)

	ad := &core.Advertisement{
		Broker:   core.BrokerInfo{LogicalAddress: "replicated-broker"},
		IssuedAt: time.Unix(0, 0),
		TTL:      time.Hour,
	}
	rec := upsertRecord(ad, core.EncodeAdvertisement(ad), true, time.Hour).enc
	if err := d.ApplyReplicated("primary", 5, rec); err != nil {
		t.Fatal(err)
	}
	if d.BrokerCount() != 1 {
		t.Fatalf("BrokerCount = %d", d.BrokerCount())
	}
	// Duplicate delivery of the same index is a no-op: nothing applied, nothing logged.
	_, before := d.WALRange()
	if err := d.ApplyReplicated("primary", 5, rec); err != nil {
		t.Fatal(err)
	}
	if _, after := d.WALRange(); d.AppliedIndex("primary") != 5 || after != before {
		t.Fatalf("AppliedIndex = %d, wal %d → %d", d.AppliedIndex("primary"), before, after)
	}
	// Replicated delete removes it.
	if err := d.ApplyReplicated("primary", 6, deleteRecord("replicated-broker", "expired").enc); err != nil {
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

// TestConfigCredentialWinsAfterRestart: the credential is configuration. A
// data directory written under one credential does not bring it back when
// the BDN restarts with another.
func TestConfigCredentialWinsAfterRestart(t *testing.T) {
	e := newEnv(t, 46)
	cfg := Config{Name: "priv.org", DataDir: t.TempDir(), Private: true,
		RequiredCredential: []byte("A")}
	d := e.bdn(cfg)
	b := e.broker(simnet.SiteIndianapolis, "broker-indy")
	if err := b.RegisterWithBDN(d.Addr()); err != nil {
		t.Fatal(err)
	}
	awaitBrokers(t, d, 1)

	cfg.RequiredCredential = []byte("B")
	d2 := e.restart(d, cfg) // graceful: the final snapshot is what recovery reads
	if got := string(d2.Credential()); got != "B" {
		t.Fatalf("credential after restart = %q, want the configured %q", got, "B")
	}
	awaitBrokers(t, d2, 1)

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
}
