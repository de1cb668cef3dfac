package bdn

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/wal"
	"narada/internal/wire"
)

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

// pullInto merges src's table into dst, as dst's exchange with src does.
func pullInto(t *testing.T, dst, src *BDN) {
	t.Helper()
	_, state := src.capture()
	recs, err := decodeState(state)
	if err != nil {
		t.Fatal(err)
	}
	dst.merge(recs)
}

// walLast is the index of d's last WAL record.
func walLast(d *BDN) uint64 { return d.walLog().LastIndex() }

// reencode builds rec again from its decoded fields alone.
func reencode(rec record) record {
	if rec.typ == recUpsert {
		return upsertRecord(rec.ad, core.EncodeAdvertisement(rec.ad), rec.hasDeadline, rec.remaining)
	}
	return deleteRecord(rec.logical, rec.reason, rec.issued, rec.remaining)
}

// codecCases is one record of every type; the fuzzers start from them.
func codecCases() []record {
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1", Realm: "x"}}
	payload := core.EncodeAdvertisement(ad)
	return []record{
		upsertRecord(ad, payload, true, 42*time.Second),
		upsertRecord(ad, payload, false, 0),
		deleteRecord("b1", "expired", time.Unix(0, 7), time.Minute),
		deleteRecord("b2", "tombstone", time.Time{}, 0),
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
	for _, garbage := range [][]byte{nil, {}, {recVersion}, {recVersion, 99}, {7, recUpsert, 0},
		{recVersion, recDelete, 2, 'b', '1', 0, 1}} {
		if _, err := decodeRecord(garbage); err == nil || err == errRetired {
			t.Fatalf("decodeRecord(%v) accepted garbage (%v)", garbage, err)
		}
	}
	// A durable credential, an election epoch and a replication watermark
	// are retired types a data directory may still hold.
	for _, retired := range [][]byte{{recVersion, 3, 1, 4, 'c', 'r', 'e', 'd'}, {recVersion, 4, 99}, {recVersion, 5, 1, 'a', 7}} {
		if _, err := decodeRecord(retired); err != errRetired {
			t.Fatalf("decodeRecord(%v) = %v, want errRetired", retired, err)
		}
	}
	// A delete written before the tombstone fields reads as one whose
	// tombstone has lapsed.
	rec, err := decodeRecord(legacyDelete("b1"))
	if err != nil || rec.logical != "b1" || !rec.issued.IsZero() || rec.remaining != 0 {
		t.Fatalf("legacy delete decoded as %+v, %v", rec, err)
	}
}

// legacyDelete and epochRecord encode records as a BDN wrote them before a set
// of BDNs exchanged tables: a delete without the tombstone fields, and the
// election epoch that began every snapshot.
func legacyDelete(logical string) []byte {
	w := newRecWriter(recDelete, 16)
	w.String(logical)
	w.String("expired")
	return w.Detach()
}

func epochRecord(epoch uint64) []byte {
	w := newRecWriter(4, 12)
	w.Uvarint(epoch)
	return w.Detach()
}

// TestRecoversDataDirWithRetiredRecords: a data directory written before the
// exchange — its snapshot led by an epoch record, its log suffix holding an
// epoch and a delete without the tombstone fields — recovers the table it
// held: the snapshot's registrations, less the one the suffix deleted.
func TestRecoversDataDirWithRetiredRecords(t *testing.T) {
	dir := t.TempDir()
	log, _, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var snap [][]byte
	for _, logical := range []string{"kept", "deleted"} {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: logical}}
		snap = append(snap, upsertRecord(ad, core.EncodeAdvertisement(ad), true, time.Minute).enc)
	}
	snap = append([][]byte{epochRecord(3)}, snap...)
	for _, enc := range snap {
		if _, err := log.Append(enc); err != nil {
			t.Fatal(err)
		}
	}
	w := wire.NewWriter(256)
	w.Byte(stateVersion)
	w.Uvarint(uint64(len(snap)))
	for _, enc := range snap {
		w.BytesField(enc)
	}
	if err := wal.SaveSnapshot(dir, log.LastIndex(), w.Detach()); err != nil {
		t.Fatal(err)
	}
	for _, enc := range [][]byte{legacyDelete("deleted"), epochRecord(4)} {
		if _, err := log.Append(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	d := openQuiet(t, simnet.NewPaperWAN(simnet.Config{Seed: 48}), "upgraded.org", Config{DataDir: dir})
	if got := d.Brokers(); len(got) != 1 || got[0].LogicalAddress != "kept" {
		t.Fatalf("recovered %v, want kept alone", got)
	}
}

// TestStateCodecRebasesDeadlines: a snapshot body is the table in records, an
// upsert in it carries the validity left at capture, and merging it anchors
// the deadline at the merger's now.
func TestStateCodecRebasesDeadlines(t *testing.T) {
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1"}, IssuedAt: time.Unix(0, 1)}
	body := encodeState([]record{deleteRecord("b0", "tombstone", time.Unix(0, 5), 12*time.Second),
		upsertRecord(ad, core.EncodeAdvertisement(ad), true, 30*time.Second)})
	got, err := decodeState(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].logical != "b0" || !got[0].issued.Equal(time.Unix(0, 5)) || got[0].remaining != 12*time.Second {
		t.Fatalf("decoded tombstone %+v", got)
	}
	if up := got[1]; up.ad.Broker.LogicalAddress != "b1" || !up.hasDeadline || up.remaining != 30*time.Second {
		t.Fatalf("decoded upsert %+v", up)
	}
	for _, garbage := range [][]byte{nil, {0xFF, 0x01}, {1, 0}, {stateVersion, 200}, body[:len(body)-1]} {
		if _, err := decodeState(garbage); err == nil {
			t.Fatalf("decodeState(%v) accepted garbage", garbage)
		}
	}

	d := openQuiet(t, simnet.NewPaperWAN(simnet.Config{Seed: 47}), "install.org", Config{DataDir: t.TempDir()})
	before := d.node.Clock().Now()
	d.merge(got)
	left := remainingTTLs(d)["b1"]
	if elapsed := d.node.Clock().Now().Sub(before); left > 30*time.Second || left < 30*time.Second-elapsed {
		t.Fatalf("merged deadline leaves %s, want 30s from the merge (%s ago)", left, elapsed)
	}
	if d.BrokerCount() != 1 {
		t.Fatalf("merged table lists %v", d.Brokers())
	}
}

// FuzzRegistryRecord: the two decoders that read what a disk or a peer holds
// — a record, and a snapshot body, which is also what a table pull answers —
// never panic, an accepted record re-encodes to one that decodes the same,
// and a snapshot body cannot claim more records than it has bytes.
func FuzzRegistryRecord(f *testing.F) {
	cases := codecCases()
	for _, c := range cases {
		f.Add(c.enc)
	}
	f.Add(encodeState(cases))
	f.Add([]byte{stateVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(servedTable())
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

// servedTable is what a member answers a pull with: a live registration and
// a tombstone, captured off a BDN that was never started.
func servedTable() []byte {
	node := transport.NewSimNode(simnet.NewPaperWAN(simnet.Config{Seed: 1}), simnet.SiteBloomington, "served", 0)
	d, err := New(node, nil, Config{Name: "served.org"})
	if err != nil {
		panic(err)
	}
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "b1", Realm: "x"}, IssuedAt: time.Unix(0, 3), TTL: time.Minute}
	d.mu.Lock()
	d.commitLocked(upsertRecord(ad, core.EncodeAdvertisement(ad), true, time.Minute), false)
	d.commitLocked(deleteRecord("b2", "expired", time.Unix(0, 2), time.Minute), false)
	d.mu.Unlock()
	_, state := d.capture()
	return state
}

// openQuiet starts a BDN named name on net whose sweeper never fires on its
// own and whose NTP service reads its node's clock.
func openQuiet(t *testing.T, net *simnet.Network, name string, cfg Config) *BDN {
	t.Helper()
	node := transport.NewSimNode(net, simnet.SiteBloomington, "bdn-"+name, 0)
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
func quietPair(t *testing.T, net *simnet.Network, cfg Config) (member, peer *BDN) {
	t.Helper()
	return openQuiet(t, net, "member", cfg), openQuiet(t, net, "peer", Config{})
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
	net := simnet.NewPaperWAN(simnet.Config{Seed: 52})
	m, p := quietPair(t, net, Config{AdmitFilter: func(ad *core.Advertisement) bool {
		return !strings.Contains(ad.Broker.Realm, "cardiff")
	}})
	now := net.Clock().Now()
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
