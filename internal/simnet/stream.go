package simnet

import (
	"sync"
	"time"
)

// Conn is a reliable, ordered, message-framed connection (TCP semantics with
// length-prefixed frames, as the real transport uses). Frames are delivered
// exactly once, in order, after the path's one-way delay.
type Conn struct {
	net    *Network
	local  Addr
	remote Addr

	link *link
	in   chan []byte // fed by the peer's delivery goroutine

	sendMu sync.Mutex
	out    chan timedFrame // this side's transmit queue
	lastAt time.Time       // monotone delivery schedule for FIFO
}

type timedFrame struct {
	at      time.Time
	payload []byte
}

// link is the shared state of one connection's two endpoints.
type link struct {
	closed    chan struct{}
	closeOnce sync.Once
}

const streamBacklog = 1024

// Listener accepts incoming stream connections at a fixed address.
type Listener struct {
	net     *Network
	addr    Addr
	backlog chan *Conn
	closed  chan struct{}
	once    sync.Once
}

// Listen opens a stream listener at addr. A Port of 0 allocates one.
func (n *Network) Listen(addr Addr) (*Listener, error) {
	if err := n.checkSite(addr); err != nil {
		return nil, err
	}
	if addr.Port == 0 {
		addr.Port = n.AllocPort()
	}
	l := &Listener{
		net:     n,
		addr:    addr,
		backlog: make(chan *Conn, 64),
		closed:  make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, ErrAddrInUse
	}
	n.listeners[addr] = l
	return l, nil
}

// Addr returns the listening address.
func (l *Listener) Addr() Addr { return l.addr }

// Accept blocks until a connection arrives or the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Close stops accepting connections. Established connections are unaffected.
func (l *Listener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
		close(l.closed)
	})
	return nil
}

// Dial establishes a connection from a local address to a listener,
// simulating the TCP three-way handshake (1.5 RTT of model time).
func (n *Network) Dial(from, to Addr) (*Conn, error) {
	if err := n.checkSite(from); err != nil {
		return nil, err
	}
	if err := n.checkSite(to); err != nil {
		return nil, err
	}
	if from.Port == 0 {
		from.Port = n.AllocPort()
	}
	if err := n.pathBlocked(from, to); err != nil {
		return nil, err
	}
	n.mu.Lock()
	l, ok := n.listeners[to]
	n.mu.Unlock()
	if !ok {
		return nil, ErrConnRefused
	}

	oneWay, err := n.oneWay(from.Site, to.Site, 64)
	if err != nil {
		return nil, err
	}
	n.clock.Sleep(3 * oneWay) // SYN, SYN-ACK, ACK

	lk := &link{closed: make(chan struct{})}
	client := &Conn{net: n, local: from, remote: to, link: lk,
		in: make(chan []byte, streamBacklog), out: make(chan timedFrame, streamBacklog)}
	server := &Conn{net: n, local: to, remote: from, link: lk,
		in: make(chan []byte, streamBacklog), out: make(chan timedFrame, streamBacklog)}
	go n.pump(client, server)
	go n.pump(server, client)

	select {
	case l.backlog <- server:
	case <-l.closed:
		lk.close()
		return nil, ErrConnRefused
	}
	return client, nil
}

// pump moves frames from src's transmit queue into dst's receive queue,
// honouring each frame's scheduled delivery time.
func (n *Network) pump(src, dst *Conn) {
	for {
		select {
		case f := <-src.out:
			if wait := f.at.Sub(n.clock.Now()); wait > 0 {
				n.clock.Sleep(wait)
			}
			select {
			case dst.in <- f.payload:
			case <-src.link.closed:
				return
			}
		case <-src.link.closed:
			return
		}
	}
}

func (lk *link) close() {
	lk.closeOnce.Do(func() { close(lk.closed) })
}

// LocalAddr returns this endpoint's address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Send queues one frame for reliable in-order delivery. It blocks when the
// transmit queue is full (backpressure) and fails if the connection is closed
// or the path is partitioned.
func (c *Conn) Send(payload []byte) error {
	select {
	case <-c.link.closed:
		return ErrClosed
	default:
	}
	if err := c.net.pathBlocked(c.local, c.remote); err != nil {
		return err
	}
	delay, err := c.net.oneWay(c.local.Site, c.remote.Site, len(payload))
	if err != nil {
		return err
	}
	buf := append([]byte(nil), payload...)

	c.sendMu.Lock()
	at := c.net.clock.Now().Add(delay)
	if at.Before(c.lastAt) {
		at = c.lastAt // preserve FIFO: a small frame must not overtake a large one
	}
	c.lastAt = at
	frame := timedFrame{at: at, payload: buf}
	c.sendMu.Unlock()

	c.net.mu.Lock()
	c.net.framesSent++
	c.net.mu.Unlock()

	select {
	case c.out <- frame:
		return nil
	case <-c.link.closed:
		return ErrClosed
	}
}

// Recv blocks until a frame arrives or the connection closes. Frames already
// in flight are still delivered after a close on the other side.
func (c *Conn) Recv() ([]byte, error) { return recv(c.in, c.link.closed, nil) }

// RecvTimeout blocks for at most d of model time.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	return recv(c.in, c.link.closed, c.net.clock.After(d))
}

// Close tears down both directions of the connection.
func (c *Conn) Close() error {
	c.link.close()
	return nil
}
