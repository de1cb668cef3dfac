package broker

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"narada/internal/event"
	"narada/internal/obs"
	"narada/internal/topics"
)

// helloTimeout bounds link handshakes (model time; generous for WAN paths).
const helloTimeout = 10 * time.Second

// helloFrame encodes this broker's link hello. The role it states is always
// roleLink: to a peer broker and to a BDN alike, this side is a broker.
func (b *Broker) helloFrame() []byte {
	hello := event.New(event.TypeLinkHello, "", nil)
	hello.Source = b.cfg.LogicalAddress
	hello.SetHeader(helloRoleHeader, roleLink)
	hello.Timestamp = b.now()
	return event.Encode(hello)
}

// serveLink runs one link session — a broker link, or a BDN registration
// (roleBDN): when replyHello is set (we are the accept side) it first answers
// the peer's hello, then pumps incoming events into the routing fabric until
// the link drops.
func (b *Broker) serveLink(lk *link, replyHello bool) {
	if replyHello {
		if err := lk.conn.Send(b.helloFrame()); err != nil {
			_ = lk.conn.Close()
			return
		}
	}

	lk.out = b.newEgress(lk.conn, "link")
	if !b.registerLink(lk) {
		_ = lk.conn.Close()
		return
	}
	b.startEgress(lk.out)
	b.connectionsChanged()
	b.cfg.Logger.Info("link up", "peer", lk.peer, "role", lk.role)
	b.cfg.Journal.Emit(obs.EventLinkUp, lk.peer, "role="+lk.role)
	lk.touch(b.node.Clock().Now())
	if lk.role == roleLink {
		b.announceInterestTo(lk)
	}
	if b.cfg.HeartbeatInterval > 0 {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.heartbeatLink(lk)
		}()
	}
	defer func() {
		lk.pending.flush()
		lk.out.close()
		_ = lk.conn.Close()
		b.mu.Lock()
		wasCurrent := b.links[lk.peer] == lk
		if wasCurrent {
			delete(b.links, lk.peer)
			b.rebuildLinkSnap()
		}
		b.mu.Unlock()
		// Only the currently registered link owns the peer's interest; a
		// link replaced by a duplicate must not wipe its successor's state.
		if wasCurrent && lk.role == roleLink {
			b.dropLinkInterest(lk.peer)
		}
		if wasCurrent {
			b.cfg.Logger.Info("link down", "peer", lk.peer, "role", lk.role)
			b.cfg.Journal.Emit(obs.EventLinkDown, lk.peer, "role="+lk.role)
		}
		b.connectionsChanged()
	}()

	for {
		if !lk.conn.FrameBuffered() { // the next receive may wait: write first
			lk.pending.flush()
		}
		f := b.frames.get()
		if f.recv(lk.conn) != nil {
			f.release()
			return
		}
		if b.cfg.HeartbeatInterval > 0 { // only the heartbeat reads lastRecv
			lk.touch(b.node.Clock().Now())
		}
		b.handleLinkFrame(lk, f)
	}
}

// handleLinkFrame is handleClientFrame for a link. A roleBDN link is
// request-only: a BDN injects discovery requests and echoes keepalives, and
// must not gain a way to publish or plant interest in the fabric, so anything
// else arriving on one is counted "other" and dropped here.
func (b *Broker) handleLinkFrame(lk *link, f *sharedFrame) {
	v, ok := b.viewFrame(f)
	switch {
	case !ok:
	case lk.role == roleBDN && v.Type != event.TypeDiscoveryRequest && v.Type != event.TypeLinkHeartbeat:
		b.tel.framesOther.Inc()
		f.release()
	case v.Type == event.TypePublish:
		b.tel.framesPublish.Inc()
		b.admitPublish(&v, f, "", lk.peer, &lk.pending)
	default:
		if ev := b.decodeFrame(f); ev != nil {
			b.handleLinkEvent(lk, ev)
		}
	}
}

// heartbeatLink sends periodic keepalives on a link and tears it down after
// three silent intervals or a failed send (e.g. a partitioned path).
func (b *Broker) heartbeatLink(lk *link) {
	clock := b.node.Clock()
	interval := b.cfg.HeartbeatInterval
	for {
		select {
		case <-b.closed:
			return
		case <-clock.After(interval):
		}
		hb := event.New(event.TypeLinkHeartbeat, "", nil)
		hb.Source = b.cfg.LogicalAddress
		if !lk.out.sendControl(b.frames.encode(hb, 1)) {
			_ = lk.conn.Close()
			return
		}
		if clock.Now().Sub(lk.lastSeen()) > 3*interval {
			_ = lk.conn.Close()
			return
		}
	}
}

// handleLinkEvent dispatches a link's control-rate traffic. For a request a
// BDN injected, fromPeer is its connection, so the flood covers every true
// broker link.
func (b *Broker) handleLinkEvent(lk *link, ev *event.Event) {
	switch ev.Type {
	case event.TypeDiscoveryRequest:
		b.handleDiscoveryRequest(ev, lk.peer, &lk.pending)
	case event.TypeControl:
		b.tel.framesControl.Inc()
		b.handleInterestControl(lk, ev)
	case event.TypeLinkHeartbeat:
		// Liveness only; nothing to route.
		b.tel.framesControl.Inc()
	default:
		// Links carry only substrate traffic; ignore anything else.
		b.tel.framesOther.Inc()
	}
}

// pubScratch holds the per-publish scratch state the fan-out path reuses
// across events, keeping the hot loop free of allocations. The visit closure
// is built once at pool-New time (not per publish — a fresh closure would be
// the fan-out's only allocation) and appends each matched registration to
// the scratch it is bound to.
type pubScratch struct {
	match  topics.Scratch // epoch-stamped dedup state for MatchEachUnique
	peers  []string       // link peers with matching remote interest
	locals []*egress      // matched local client queues
	links  []*egress      // forwarding targets
	drops  dropBatch      // batched queue-full accounting for this fan-out
	visit  func(id string, val any)
}

var pubScratchPool = sync.Pool{New: func() any {
	sc := &pubScratch{
		peers:  make([]string, 0, 8),
		locals: make([]*egress, 0, 64),
		links:  make([]*egress, 0, 8),
	}
	sc.visit = func(id string, val any) {
		// Local subscriptions carry their delivery queue as the registration
		// value; link-interest registrations carry none and are recognised by
		// their namespaced id.
		if q, ok := val.(*egress); ok {
			sc.locals = append(sc.locals, q)
			return
		}
		if peer, isLink := isLinkSubscriber(id); isLink {
			sc.peers = append(sc.peers, peer)
		}
	}
	return sc
}}

func containsString(ss []string, s string) bool {
	for _, have := range ss {
		if have == s {
			return true
		}
	}
	return false
}

// publishEvent admits a publish this broker framed itself — the in-process
// Publish, an advertisement a client relays — exactly as if it had been read
// off a client's socket (client names the relaying session, "" for Publish).
func (b *Broker) publishEvent(ev *event.Event, client string) {
	if v, f, ok := b.frameEvent(ev); ok {
		b.admitPublish(&v, f, client, "", nil)
	}
}

// frameEvent encodes ev into a pooled frame and parses it back in place.
func (b *Broker) frameEvent(ev *event.Event) (event.View, *sharedFrame, bool) {
	f := b.frames.encode(ev, 1)
	v, err := event.Parse(f.buf)
	if err != nil {
		// A topic or payload past the codec's limits: no peer could decode it.
		f.release()
	}
	return v, f, err == nil
}

// admitPublish is the one admission rule for a publish, consuming the caller's
// reference on f. From a client session (fromPeer == "") the topic must be
// publishable; from anywhere the ID must be new to this broker. An admitted
// frame goes to the router as the bytes it arrived in unless the broker has
// to change them, which only happens at the ingress broker: a client frame
// without a Source is stamped with the session's id, and one the sampler
// picks gets the msg-* headers — the sampler is consulted here and nowhere
// else, once per admitted client publish that does not already carry a
// verdict. Those two are materialised, amended and re-encoded; link frames
// always pass through.
func (b *Broker) admitPublish(v *event.View, f *sharedFrame, client, fromPeer string, set *flushSet) {
	if (fromPeer == "" && topics.Validate(v.Topic) != nil) || b.evDedup.Seen(v.ID) {
		f.release()
		return
	}
	if fromPeer == "" {
		sample := !v.MsgSampled() && b.cfg.PublishSampler.Decide(v.Topic)
		if sample || v.Source == "" {
			ev := v.Event()
			f.release()
			if ev.Source == "" {
				ev.Source = client
			}
			if sample {
				ev.SetMsgTrace(b.cfg.LogicalAddress, 0)
			}
			rewritten, rf, ok := b.frameEvent(ev)
			if !ok {
				return
			}
			v, f = &rewritten, rf
		}
	}
	b.fanOut(v, f, fromPeer, set)
}

// fanOut is the publish router: it delivers the encoded publish in f to every
// matching local subscriber and forwards it over links (except the one it
// arrived on) with one hop spent. In RouteFlood mode every link is used; in
// RouteSubscriptions mode only links whose peer registered a matching
// interest. v is f parsed in place. The caller's reference on f is consumed.
//
// This is the substrate's hottest loop, and it is lock-free and copies
// nothing it does not have to: matching walks the immutable COW trie snapshot
// (each registration hands back its egress queue directly, so there is no
// client-map lookup), forwarding links come from an atomically swapped
// snapshot, and the frame — as received from the socket, or as frameEvent
// encoded it — is shared by reference count with every local queue. Links
// share one more frame, a pooled copy with the TTL byte decremented; when no
// local subscriber matched, the hop is spent on f in place and nothing is
// copied at all. Only a sampled message is materialised, to advance the hop
// header on its link copy. Nothing here writes to a socket: the frames wait in
// the egress queues until the reader flushes set (set nil: until the woken
// writer goroutines write them), and neither ever blocks on a slow peer.
func (b *Broker) fanOut(v *event.View, f *sharedFrame, fromPeer string, set *flushSet) {
	// The returned entry handle is stamped onto every frame of this fan-out,
	// so delivered/dropped tallies on the egress side are plain atomic adds.
	// born feeds the delivery-latency histogram observed at egress flush;
	// control/replay frames never carry either.
	f.flow, f.born = b.flows.Published(v.Topic, len(v.Payload)), v.Timestamp
	if b.history != nil {
		b.history.Add(v.Topic, f.buf) // copied now: with the TTL that arrived
	}
	origin, hop, sampled := v.MsgTrace()
	var matchStart time.Time
	if sampled {
		matchStart = time.Now()
	}

	sc := pubScratchPool.Get().(*pubScratch)
	sc.peers = sc.peers[:0]
	sc.locals = sc.locals[:0]
	sc.links = sc.links[:0]
	b.subs.MatchEachUnique(v.Topic, &sc.match, sc.visit)

	if v.TTL > 0 {
		for _, lk := range *b.linkSnap.Load() {
			if lk.peer == fromPeer {
				continue
			}
			if b.cfg.Routing == RouteSubscriptions && !containsString(sc.peers, lk.peer) {
				continue
			}
			sc.links = append(sc.links, lk.out)
		}
	}
	nLocals, nLinks := int32(len(sc.locals)), int32(len(sc.links))
	if sampled {
		f.traceID, f.enqueuedNs = b.traceRoute(v, fromPeer, origin, hop, matchStart, nLocals, nLinks)
	}

	// Network dissemination: one frame with a hop spent, shared by every link.
	fwd := f
	if nLinks > 0 {
		switch {
		case sampled:
			// The hop counter in the headers advances too: re-encode.
			next := v.Event()
			next.TTL--
			next.SetHeader(event.HeaderMsgHop, strconv.Itoa(int(hop)+1))
			fwd = b.frames.encode(next, nLinks)
			fwd.stampFrom(f)
		case nLocals > 0:
			// Local subscribers must read the TTL that arrived: patch a copy.
			fwd = b.frames.copyOf(f, nLinks)
			fwd.buf[v.TTLOff]--
		default:
			f.refs.Add(nLinks)
			f.buf[v.TTLOff]--
		}
	}
	// Local delivery: the frame itself, one reference per matched subscriber;
	// the last egress queue to write it returns it to the pool.
	if nLocals > 0 {
		f.refs.Add(nLocals)
		for _, q := range sc.locals {
			q.sendDataBatch(f, &sc.drops, set)
		}
		b.tel.deliveredLocal.Add(uint64(nLocals))
	}
	if nLinks > 0 {
		for _, q := range sc.links {
			q.sendDataBatch(fwd, &sc.drops, set)
		}
		b.tel.deliveredLink.Add(uint64(nLinks))
	}
	// The caller's reference kept f (and with it v) alive through the fan-out.
	f.release()
	// Flush batched eviction accounting and shed the pointers it holds before
	// the scratch goes back in the pool.
	sc.drops.settle()
	sc.drops = dropBatch{}
	pubScratchPool.Put(sc)
}

// traceRoute records a sampled publish's spans at this broker and returns the
// stamps its frames carry to the egress writers (trace id, enqueue wall
// clock). The ingress broker records the origin span — whether it rolled the
// dice itself or the publisher pre-stamped the sampled headers (e.g. loadgen
// -sample-every); a broker the message reached over a link records the hop
// instead, so the assembled trace shows which broker-to-broker edges it
// travelled. v aliases a pooled frame, so every string a span keeps is cloned.
func (b *Broker) traceRoute(v *event.View, fromPeer, origin string, hop uint8, matchStart time.Time, locals, links int32) (traceID string, enqueuedNs int64) {
	traceID = v.ID.String()
	enqueuedNs = time.Now().UnixNano()
	// A nil tracer hands back a nil *Trace, and both record nothing.
	tr := b.tel.tracer.Trace(traceID)
	if fromPeer == "" {
		at := time.Unix(0, v.Timestamp).UTC()
		if v.Timestamp == 0 {
			at = b.now()
		}
		tr.Span("msg-publish", at, 0,
			obs.A("broker", b.cfg.LogicalAddress),
			obs.A("topic", strings.Clone(v.Topic)),
			obs.A("source", strings.Clone(v.Source)))
	} else {
		tr.Event("msg-hop", b.now(),
			obs.A("broker", b.cfg.LogicalAddress),
			obs.A("from", fromPeer),
			obs.A("origin", strings.Clone(origin)),
			obs.A("hop", strconv.Itoa(int(hop))))
	}
	tr.Span("msg-match", b.now(), time.Since(matchStart),
		obs.A("broker", b.cfg.LogicalAddress),
		obs.A("hop", strconv.Itoa(int(hop))),
		obs.A("locals", strconv.Itoa(int(locals))),
		obs.A("links", strconv.Itoa(int(links))))
	return traceID, enqueuedNs
}

// linksExcept returns the broker links excluding one peer; BDN-role
// connections (BDNs inject; they are not flooding targets) are already
// absent from the link snapshot. Lock-free: reads the atomic snapshot.
func (b *Broker) linksExcept(peer string) []*link {
	snap := *b.linkSnap.Load()
	out := make([]*link, 0, len(snap))
	for _, lk := range snap {
		if lk.peer == peer {
			continue
		}
		out = append(out, lk)
	}
	return out
}
