package bdn

// Table exchange between the members of a BDN set. Brokers register with
// every member, so what one member can lack is a registration made while it
// was down or cut off. Every exchangeEvery each member dials each peer's
// stream address, sends a LinkHello in the table role (its payload the
// credential), and reads back one frame: the peer's table as a snapshot body.
// There is no leader and no log position: a pull is idempotent, and a member
// that was away catches up on its next one.

import (
	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/transport"
)

// exchangeLoop pulls peer's table every exchangeEvery until the BDN closes.
func (d *BDN) exchangeLoop(peer string) {
	defer d.wg.Done()
	for {
		select {
		case <-d.closed:
			return
		case <-d.node.Clock().After(exchangeEvery):
		}
		d.pull(peer)
	}
}

// pull fetches one peer's table on a fresh connection and merges it. The
// connection is served like any other, so Close tears it down mid-pull.
func (d *BDN) pull(peer string) {
	conn, err := d.node.Dial(peer)
	if err != nil {
		return
	}
	done := make(chan struct{})
	served := d.serve(conn, func() string {
		defer close(done)
		hello := event.New(event.TypeLinkHello, "", d.Credential())
		hello.Source = d.cfg.Name
		hello.SetHeader(event.HeaderRole, event.RoleTable)
		if conn.Send(event.Encode(hello)) != nil {
			return ""
		}
		frame, err := conn.RecvTimeout(exchangeEvery)
		if err != nil {
			return ""
		}
		recs, err := decodeState(frame)
		if err != nil {
			d.tel.framesMalformed.Inc()
			return ""
		}
		d.merge(recs)
		return ""
	})
	if served {
		<-done
	}
}

// serveTable answers a peer's pull with this member's table — a private BDN
// only to a peer that presents its credential; any other gets the connection
// closed unanswered.
func (d *BDN) serveTable(conn transport.Conn, cred []byte) {
	if !d.authorized(cred) {
		d.tel.pullsDenied.Inc()
		return
	}
	_, state := d.capture()
	if conn.Send(state) == nil {
		// Hold the connection until the peer hangs up: closing it now could
		// drop the table in flight.
		_, _ = conn.RecvTimeout(exchangeEvery)
	}
}

// merge takes from a peer's table what this member would have taken from the
// broker itself. An upsert is committed only when its advertisement can still
// be live — issued, on the NTP clock the broker stamped it by, less than its
// own TTL ago — and is newer, by IssuedAt, than any of that broker this
// member has applied: a live registration's, or the one a delete left as a
// tombstone. So a merge never brings back what this member expired, nor a
// copy a peer recovered from disk after the broker died. Such an entry then
// passes the admit filter a registration passes, and keeps the validity the
// peer had left, never more than the advertisement's own TTL. The peer's
// deletes and tombstones are not applied: expiry is each member's own
// verdict.
func (d *BDN) merge(recs []record) {
	now := d.now()
	for _, rec := range recs {
		if rec.typ != recUpsert {
			continue
		}
		ttl := rec.ad.TTL
		if ttl > 0 && !rec.ad.IssuedAt.Add(ttl).After(now) {
			continue
		}
		// The filter runs outside d.mu, as for a registration: newness is
		// checked again before the commit.
		d.mu.Lock()
		newer := d.newerLocked(rec.ad)
		d.mu.Unlock()
		if !newer || !d.admits(rec.ad) {
			continue
		}
		hasDeadline, remaining := rec.hasDeadline, rec.remaining
		if ttl > 0 && (!hasDeadline || remaining > ttl) {
			hasDeadline, remaining = true, ttl
		}
		d.mu.Lock()
		if d.newerLocked(rec.ad) {
			d.commitLocked(upsertRecord(rec.ad, core.EncodeAdvertisement(rec.ad), hasDeadline, remaining), false)
			d.tel.adsMerged.Inc()
		}
		d.mu.Unlock()
	}
}

// newerLocked reports whether ad was issued after every advertisement of its
// broker this member has applied.
func (d *BDN) newerLocked(ad *core.Advertisement) bool {
	logical := ad.Broker.LogicalAddress
	newest := d.gone[logical].issued
	if r, ok := d.brokers[logical]; ok {
		newest = r.ad.IssuedAt
	}
	return ad.IssuedAt.After(newest)
}
