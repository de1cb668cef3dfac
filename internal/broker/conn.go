package broker

import (
	"errors"
	"sync/atomic"
	"time"

	"narada/internal/event"
	"narada/internal/topics"
	"narada/internal/transport"
)

// link is an established broker-to-broker (or BDN-to-broker) connection.
type link struct {
	peer string // peer logical address
	role string // event.RoleLink or roleBDN
	conn transport.Conn
	out  *egress // asynchronous outbound queue (set before registration)

	// pending holds the queues this link's reader routed into and writes next.
	pending flushSet

	// lastRecv is when the last inbound frame arrived, in clock
	// nanoseconds: the reader stores it, the heartbeat goroutine loads it.
	lastRecv atomic.Int64
}

func (lk *link) touch(now time.Time) { lk.lastRecv.Store(now.UnixNano()) }

func (lk *link) lastSeen() time.Time { return time.Unix(0, lk.lastRecv.Load()) }

// clientConn is a subscriber/publisher connection.
type clientConn struct {
	id   string // remote address, used as subscriber identity
	conn transport.Conn
	out  *egress // asynchronous outbound queue (set before registration)

	// pending holds the queues this client's reader routed into and writes next.
	pending flushSet
}

// acceptLoop admits stream connections and classifies them by their first
// event: a LinkHello makes a broker link or BDN connection; anything else is
// treated as the first event of a client session.
func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.listener.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(conn)
		}()
	}
}

func (b *Broker) handleConn(conn transport.Conn) {
	// Bound the wait for the first frame: an idle pre-hello connection is
	// not yet tracked anywhere, and Close must not hang on its goroutine.
	frame, err := conn.RecvTimeout(helloTimeout)
	if err != nil {
		_ = conn.Close()
		return
	}
	ev, err := event.Decode(frame)
	if err != nil {
		_ = conn.Close()
		return
	}
	if ev.Type == event.TypeLinkHello {
		b.serveLink(&link{peer: ev.Source, role: ev.Header(event.HeaderRole), conn: conn}, true)
		return
	}
	c := &clientConn{id: conn.RemoteAddr(), conn: conn}
	c.out = b.newEgress(conn, "local")
	if !b.registerClient(c) {
		_ = conn.Close()
		return
	}
	b.startEgress(c.out)
	b.connectionsChanged()
	first := b.frames.get()
	first.buf = frame
	b.handleClientFrame(c, first)
	b.serveClient(c)
}

// serveClient pumps a client session until it disconnects.
func (b *Broker) serveClient(c *clientConn) {
	defer func() {
		c.pending.flush()
		c.out.close()
		_ = c.conn.Close()
		patterns := b.subs.Patterns(c.id)
		b.subs.UnsubscribeAll(c.id)
		for _, pattern := range patterns {
			b.localInterestChanged(pattern, -1)
		}
		b.mu.Lock()
		delete(b.clients, c.id)
		b.mu.Unlock()
		b.connectionsChanged()
	}()
	for {
		if !c.conn.FrameBuffered() { // the next receive may wait: write first
			c.pending.flush()
		}
		f := b.frames.get()
		if f.recv(c.conn) != nil {
			f.release()
			return
		}
		b.handleClientFrame(c, f)
	}
}

// handleClientFrame dispatches one frame from a client, consuming the
// reader's reference on it. A publish is parsed in place and routed as the
// bytes it arrived in; everything else is control-rate traffic and is decoded.
func (b *Broker) handleClientFrame(c *clientConn, f *sharedFrame) {
	v, ok := b.viewFrame(f)
	switch {
	case !ok:
	case v.Type == event.TypePublish:
		b.tel.framesPublish.Inc()
		b.admitPublish(&v, f, c.id, "", &c.pending)
	default:
		if ev := b.decodeFrame(f); ev != nil {
			b.handleClientEvent(c, ev)
		}
	}
}

// viewFrame parses the event in f in place. A malformed frame is counted and
// released, and the session carries on.
func (b *Broker) viewFrame(f *sharedFrame) (event.View, bool) {
	v, err := event.Parse(f.buf)
	if err != nil {
		b.tel.framesMalformed.Inc()
		f.release()
	}
	return v, err == nil
}

// decodeFrame materialises the event in f and releases the frame.
func (b *Broker) decodeFrame(f *sharedFrame) *event.Event {
	ev, err := event.Decode(f.buf)
	f.release()
	if err != nil {
		b.tel.framesMalformed.Inc()
		return nil
	}
	return ev
}

func (b *Broker) handleClientEvent(c *clientConn, ev *event.Event) {
	switch ev.Type {
	case event.TypeSubscribe:
		b.tel.framesControl.Inc()
		// The registration carries the client's delivery queue, so matching
		// on the publish path hands the queue straight back — no client-map
		// lookup, no lock.
		added, err := b.subs.SubscribeValue(c.id, ev.Topic, c.out)
		if err == nil && added {
			b.localInterestChanged(ev.Topic, +1)
		}
	case event.TypeUnsubscribe:
		b.tel.framesControl.Inc()
		if b.subs.Unsubscribe(c.id, ev.Topic) {
			b.localInterestChanged(ev.Topic, -1)
		}
	case event.TypeControl:
		// Clients send no control the broker acts on.
		b.tel.framesControl.Inc()
	case event.TypeDiscoveryRequest:
		// Injection from a connected entity (e.g. a BDN speaking the client
		// protocol, or a test harness).
		b.handleDiscoveryRequest(ev, "", &c.pending)
	case event.TypeAdvertisement:
		// Clients relaying advertisements publish them on the public topic.
		b.tel.framesOther.Inc()
		ev.Type = event.TypePublish
		ev.Topic = topics.AdvertisementTopic
		b.publishEvent(ev, c.id)
	default:
		// Ignore unsupported client events.
	}
}

// LinkTo establishes a broker link to a peer broker's stream address. With
// Config.Supervise set the link becomes self-healing: it is redialed
// whenever the session dies (heartbeat teardown, peer restart,
// healed partition), and every fresh link re-announces this side's interest
// table to the peer. The initial dial still runs synchronously so the
// caller sees its error either way.
func (b *Broker) LinkTo(addr string) error {
	return b.superviseDial(SuperviseLink, addr, b.dialLink)
}

// dialLink performs one link dial + hello handshake and hands the link to
// goServeLink; the channel it returns is what a redial loop watches.
func (b *Broker) dialLink(addr string) (<-chan struct{}, error) {
	conn, err := b.node.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(b.helloFrame()); err != nil {
		_ = conn.Close()
		return nil, err
	}
	// Peer replies with its own hello so both sides learn identities.
	frame, err := conn.RecvTimeout(helloTimeout)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	reply, err := event.Decode(frame)
	if err != nil || reply.Type != event.TypeLinkHello {
		_ = conn.Close()
		return nil, errors.New("broker: link handshake failed")
	}
	return b.goServeLink(&link{peer: reply.Source, role: event.RoleLink, conn: conn}), nil
}

// goServeLink runs a dialled link's session on its own goroutine. The returned
// channel closes when the session ends (however it ends).
func (b *Broker) goServeLink(lk *link) <-chan struct{} {
	done := make(chan struct{})
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer close(done)
		b.serveLink(lk, false)
	}()
	return done
}
