package bdn

// Durable advertisement registry. The broker table changes only by records,
// and only in commitLocked: a registration accepted here, a sweep, an entry
// merged from a peer member's table and a record read back from disk all take
// that one road. The same records are what the write-ahead log holds, what a
// snapshot lists and what a member serves a peer that pulls its table, so a
// restarted BDN recovers its registry instead of forcing a fleet-wide
// re-registration storm.
//
// TTL deadlines are never persisted as absolute times. An upsert carries the
// validity *remaining* when it was written, measured on the local node clock,
// and applying it sets the deadline to now+remaining — so clock steps or
// downtime between crash and restart can't mass-expire live ads.

import (
	"errors"
	"fmt"
	"time"

	"narada/internal/core"
	"narada/internal/obs"
	"narada/internal/wal"
	"narada/internal/wire"
)

// Record encoding: [recVersion][type][body...] with the wire package. An
// upsert stores the encoded core.Advertisement verbatim. Types 3 (a durable
// credential), 4 (an election epoch) and 5 (a replication watermark) are
// retired: a data directory written before may hold them, and recovery skips
// each. A delete written before the tombstone fields leaves a tombstone that
// has already lapsed.
const (
	recVersion byte = 1

	recUpsert byte = 1 // BytesField(ad) Bool(hasDeadline) Duration(remaining)
	recDelete byte = 2 // String(logical) String(reason) [Time(issued) Duration(remaining)]
)

// snapshotEvery is how many WAL records accumulate between snapshots. Each
// snapshot prunes the log segments it covers.
const snapshotEvery = 1024

// errRetired is decodeRecord's answer to a record of a retired type.
var errRetired = errors.New("bdn: retired wal record type")

// record is one registry mutation: its encoding (what the WAL, a snapshot and
// a served table carry) beside the decoded fields of its type. An upsert's
// remaining is the registration's validity left; a delete's is how long the
// tombstone it leaves still shadows the deleted advertisement (issued).
type record struct {
	typ byte
	enc []byte

	ad          *core.Advertisement // recUpsert
	hasDeadline bool
	remaining   time.Duration

	logical string // recDelete
	reason  string
	issued  time.Time
}

// upsertRecord takes the advertisement both ways, decoded and encoded: the
// registration path has both in hand and must not pay for either twice.
func upsertRecord(ad *core.Advertisement, adPayload []byte, hasDeadline bool, remaining time.Duration) record {
	w := newRecWriter(recUpsert, 16+len(adPayload))
	w.BytesField(adPayload)
	w.Bool(hasDeadline)
	w.Duration(remaining)
	return record{typ: recUpsert, enc: w.Detach(), ad: ad, hasDeadline: hasDeadline, remaining: remaining}
}

func deleteRecord(logical, reason string, issued time.Time, remaining time.Duration) record {
	w := newRecWriter(recDelete, 28+len(logical)+len(reason))
	w.String(logical)
	w.String(reason)
	w.Time(issued)
	w.Duration(remaining)
	return record{typ: recDelete, enc: w.Detach(), logical: logical, reason: reason, issued: issued, remaining: remaining}
}

func newRecWriter(typ byte, capacity int) *wire.Writer {
	w := wire.NewWriter(capacity + 2)
	w.Byte(recVersion)
	w.Byte(typ)
	return w
}

// decodeRecord parses one record; the result keeps b as its encoding.
func decodeRecord(b []byte) (record, error) {
	r := wire.NewReader(b)
	if len(b) < 2 {
		return record{}, errors.New("bdn: short wal record")
	}
	if v := r.Byte(); v != recVersion {
		return record{}, fmt.Errorf("bdn: wal record version %d", v)
	}
	rec := record{typ: r.Byte(), enc: b}
	switch rec.typ {
	case recUpsert:
		adPayload := r.BytesSpan()
		rec.hasDeadline = r.Bool()
		rec.remaining = r.Duration()
		if r.Err() == nil {
			var err error
			if rec.ad, err = core.DecodeAdvertisement(adPayload); err != nil {
				return record{}, err
			}
		}
	case recDelete:
		rec.logical = r.String()
		rec.reason = r.String()
		if r.Remaining() > 0 {
			rec.issued = r.Time()
			rec.remaining = r.Duration()
		}
	case 3, 4, 5:
		return record{}, errRetired
	default:
		return record{}, fmt.Errorf("bdn: unknown wal record type %d", rec.typ)
	}
	if err := r.Finish(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// A snapshot body (wrapped in wal's CRC envelope), and the table a member
// serves a peer, is the table said in the same records:
//
//	Byte(stateVersion) Uvarint(#records) { BytesField(record) }
//
// one upsert per unexpired registration with the validity remaining at
// capture, one delete per live tombstone. Version 1 was a second encoding of
// the table; a snapshot in it is undecodable and recovery falls back to the
// log.
const stateVersion byte = 2

func encodeState(recs []record) []byte {
	w := wire.NewWriter(256)
	w.Byte(stateVersion)
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		w.BytesField(recs[i].enc)
	}
	return w.Detach()
}

func decodeState(b []byte) ([]record, error) {
	r := wire.NewReader(b)
	if v := r.Byte(); r.Err() != nil || v != stateVersion {
		return nil, fmt.Errorf("bdn: snapshot state version %d", v)
	}
	n := r.Uvarint()
	if n > uint64(r.Remaining()) { // a record is longer than a byte
		return nil, errors.New("bdn: snapshot record count exceeds its body")
	}
	recs := make([]record, 0, n)
	for i := uint64(0); i < n; i++ {
		rec, err := decodeRecord(r.BytesSpan())
		if err == errRetired {
			continue
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// initPersistence opens the WAL in cfg.DataDir and rebuilds the table from
// the latest snapshot plus the log suffix. Called from Start, before the
// listeners come up, so no mutation can race recovery.
func (d *BDN) initPersistence() error {
	if d.cfg.DataDir == "" {
		return nil
	}
	log, intact, truncated, err := wal.Open(wal.Options{Dir: d.cfg.DataDir, Sync: d.cfg.Fsync})
	if err != nil {
		return fmt.Errorf("bdn %s: wal: %w", d.cfg.Name, err)
	}
	// Under d.mu throughout: nothing is listening yet, and a metrics scrape
	// that asks for the table waits for the whole of it.
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = log

	snapIdx := uint64(0)
	if idx, state, err := wal.LoadSnapshot(d.cfg.DataDir); err == nil {
		recs, derr := decodeState(state)
		if derr != nil {
			d.cfg.Logger.Warn("snapshot undecodable, replaying full wal", "err", derr)
		} else {
			for _, rec := range recs {
				d.commitLocked(rec, true)
			}
			snapIdx = idx
		}
	} else if err != wal.ErrNoSnapshot {
		log.Close()
		return fmt.Errorf("bdn %s: snapshot: %w", d.cfg.Name, err)
	}

	replayed := 0
	err = log.Replay(snapIdx+1, func(_ uint64, payload []byte) error {
		rec, derr := decodeRecord(payload)
		if derr == errRetired {
			return nil
		}
		if derr != nil {
			// A record we wrote but can no longer parse is a bug, not a disk
			// fault (the CRC already passed); skip it rather than refuse to
			// start.
			d.cfg.Logger.Warn("skipping undecodable wal record", "err", derr)
			return nil
		}
		d.commitLocked(rec, true)
		replayed++
		return nil
	})
	if err == wal.ErrNotFound {
		err = nil // snapshot covers more than the log retains
	}
	if err != nil {
		log.Close()
		return fmt.Errorf("bdn %s: wal replay: %w", d.cfg.Name, err)
	}
	d.tel.walReplayed.Add(uint64(replayed))
	d.cfg.Logger.Info("registry recovered",
		"snapshot", snapIdx, "wal_records", intact, "replayed", replayed,
		"brokers", len(d.brokers), "truncated", truncated)
	d.cfg.Journal.Emit(obs.EventWALReplay, d.cfg.Name,
		fmt.Sprintf("snapshot=%d replayed=%d brokers=%d truncated=%v",
			snapIdx, replayed, len(d.brokers), truncated))
	return nil
}

// commitLocked is the one road into d.brokers and d.gone: it applies rec,
// then appends it to the WAL and journals it — unless rec was recovered, read
// back from a snapshot or this member's own WAL, and so is already on disk and
// was told when it happened. A registration accepted here and an entry merged
// from a peer's table are committed alike. Where a record came from never
// decides what the table becomes. A connection and a measured distance are
// not in any record — they are soft state a registration keeps across upserts.
func (d *BDN) commitLocked(rec record, recovered bool) {
	switch rec.typ {
	case recUpsert:
		logical := rec.ad.Broker.LogicalAddress
		r, known := d.brokers[logical]
		if !known {
			r = &registration{}
			d.brokers[logical] = r
		}
		r.ad, r.expiresAt = rec.ad, time.Time{}
		if rec.hasDeadline {
			r.expiresAt = d.node.Clock().Now().Add(rec.remaining)
		}
		delete(d.gone, logical)
		if recovered {
			break
		}
		if known {
			d.cfg.Journal.Emit(obs.EventAdRefreshed, logical, fmt.Sprintf("ttl=%s", rec.remaining))
		} else {
			d.cfg.Journal.Emit(obs.EventAdRegistered, logical,
				fmt.Sprintf("realm=%s ttl=%s", rec.ad.Broker.Realm, rec.remaining))
		}
	case recDelete:
		if _, known := d.brokers[rec.logical]; known && !recovered {
			d.cfg.Journal.Emit(obs.EventAdExpired, rec.logical, rec.reason)
		}
		delete(d.brokers, rec.logical)
		d.gone[rec.logical] = tombstone{issued: rec.issued, until: d.node.Clock().Now().Add(rec.remaining)}
	}
	if !recovered {
		d.appendRecordLocked(rec.enc)
	}
}

// appendRecordLocked appends one record to the WAL (no-op when the BDN is
// not durable) and schedules a snapshot when enough records accumulated.
// Must be called with d.mu held so WAL order matches table order.
func (d *BDN) appendRecordLocked(payload []byte) {
	if d.log == nil {
		return
	}
	if _, err := d.log.Append(payload); err != nil {
		d.tel.walErrors.Inc()
		d.cfg.Logger.Error("wal append failed", "err", err)
		return
	}
	d.tel.walAppends.Inc()
	if d.sinceSnap++; d.sinceSnap >= d.snapEvery {
		d.sinceSnap = 0
		select {
		case d.snapCh <- struct{}{}:
		default:
		}
	}
}

// snapshotLoop persists a snapshot each time enough WAL records accumulate,
// then prunes the covered segments.
func (d *BDN) snapshotLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.closed:
			return
		case <-d.snapCh:
		}
		if err := d.SnapshotNow(); err != nil {
			d.cfg.Logger.Error("snapshot failed", "err", err)
		}
	}
}

// SnapshotNow captures the table, persists it as the latest snapshot, and
// prunes WAL segments it covers. No-op for non-durable BDNs.
func (d *BDN) SnapshotNow() error {
	log := d.walLog()
	if log == nil {
		return nil
	}
	index, state := d.capture()
	if index == 0 {
		return nil
	}
	if err := wal.SaveSnapshot(d.cfg.DataDir, index, state); err != nil {
		d.tel.walErrors.Inc()
		return err
	}
	if err := log.TruncateFront(index + 1); err != nil {
		return err
	}
	d.tel.walSnapshots.Inc()
	d.cfg.Journal.Emit(obs.EventWALSnapshot, d.cfg.Name,
		fmt.Sprintf("index=%d bytes=%d", index, len(state)))
	return nil
}

// capture says the table as a snapshot body — for the local snapshot file, or
// for a peer that pulls it — and returns the WAL index the state covers (0
// when not durable).
func (d *BDN) capture() (index uint64, state []byte) {
	now := d.node.Clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := make([]record, 0, len(d.brokers)+len(d.gone))
	for _, r := range d.brokers {
		if !r.expired(now) {
			recs = append(recs, upsertRecord(r.ad, core.EncodeAdvertisement(r.ad),
				!r.expiresAt.IsZero(), r.expiresAt.Sub(now)))
		}
	}
	for logical, t := range d.gone {
		if now.Before(t.until) {
			recs = append(recs, deleteRecord(logical, "tombstone", t.issued, t.until.Sub(now)))
		}
	}
	if d.log != nil {
		index = d.log.LastIndex()
	}
	return index, encodeState(recs)
}

// Durable reports whether the BDN persists its registry.
func (d *BDN) Durable() bool { return d.cfg.DataDir != "" }

// walLog returns the open log: nil when the BDN is not durable.
func (d *BDN) walLog() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

// Credential returns the credential private discovery requests and table
// pulls must carry: configuration, never recovered state.
func (d *BDN) Credential() []byte { return d.cfg.RequiredCredential }

// closePersistence writes a final snapshot and closes the WAL.
func (d *BDN) closePersistence() {
	log := d.walLog()
	if log == nil {
		return
	}
	if err := d.SnapshotNow(); err != nil {
		d.cfg.Logger.Warn("final snapshot failed", "err", err)
	}
	_ = log.Close()
}
