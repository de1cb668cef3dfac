package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"narada/internal/ntptime"
)

// MaxFrame bounds a single TCP frame (matches wire.MaxBytesLen plus headroom
// for the envelope).
const MaxFrame = 1<<24 + 1024

// DefaultMulticastGroups maps symbolic group names used by the protocol to
// concrete IP multicast addresses for real deployments.
var DefaultMulticastGroups = map[string]string{
	"narada/discovery": "239.192.77.77:45454",
}

// RealNode is the Node implementation over the operating system's sockets.
type RealNode struct {
	bindIP string
	clock  ntptime.SystemClock
	groups map[string]string
}

// NewRealNode creates a socket-backed node binding to bindIP ("" means all
// interfaces, "127.0.0.1" keeps everything loopback-local). groups may be nil
// to use DefaultMulticastGroups.
func NewRealNode(bindIP string, groups map[string]string) *RealNode {
	if groups == nil {
		groups = DefaultMulticastGroups
	}
	return &RealNode{bindIP: bindIP, groups: groups}
}

// Clock implements Node.
func (n *RealNode) Clock() ntptime.Clock { return n.clock }

// ListenPacket implements Node.
func (n *RealNode) ListenPacket(port int) (PacketConn, error) {
	addr := &net.UDPAddr{IP: net.ParseIP(n.bindIP), Port: port}
	uc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	p := &realPacketConn{node: n, uc: uc}
	p.sock.init(uc)
	return p, nil
}

// Listen implements Node.
func (n *RealNode) Listen(port int) (Listener, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("%s:%d", n.bindIP, port))
	if err != nil {
		return nil, err
	}
	return &realListener{l: l}, nil
}

// Dial implements Node.
func (n *RealNode) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return newRealConn(c), nil
}

type realPacketConn struct {
	node *RealNode
	uc   *net.UDPConn
	sock udpIO // uc's receive and send

	mu     sync.Mutex
	joined map[string]*net.UDPConn // group name -> multicast reader
	inbox  chan packet
	once   sync.Once
}

type packet struct {
	payload []byte
	from    string
}

// Send parses a literal "ip:port" — what peers advertise, almost always —
// without the resolver; only a host name pays for one.
func (p *realPacketConn) Send(to string, payload []byte) error {
	if ap, err := netip.ParseAddrPort(to); err == nil {
		// An IPv4-mapped IPv6 literal is IPv4 to the resolver below, and an
		// IPv4 socket refuses an address that does not say so.
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		return translateNetErr(p.sock.writeTo(payload, ap))
	}
	addr, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return err
	}
	_, err = p.uc.WriteToUDP(payload, addr)
	return translateNetErr(err)
}

func (p *realPacketConn) Recv() ([]byte, string, error) {
	return p.recv(0)
}

func (p *realPacketConn) RecvTimeout(d time.Duration) ([]byte, string, error) {
	return p.recv(d)
}

// recv reads from the unicast socket or, when groups are joined, from the
// merged inbox fed by reader goroutines.
func (p *realPacketConn) recv(d time.Duration) ([]byte, string, error) {
	p.mu.Lock()
	inbox := p.inbox
	p.mu.Unlock()
	if inbox != nil {
		var timer <-chan time.Time
		if d > 0 {
			timer = time.After(d)
		}
		select {
		case pkt, ok := <-inbox:
			if !ok {
				return nil, "", ErrClosed
			}
			return pkt.payload, pkt.from, nil
		case <-timer:
			return nil, "", ErrTimeout
		}
	}
	if d > 0 {
		if err := p.uc.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, "", err
		}
		defer p.uc.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	// Read into a pooled maximum-size buffer and hand the caller an exact-size
	// copy: a fresh 64 KiB buffer per datagram is a zeroed large-object
	// allocation that the ~100-byte slice returned would keep alive whole. No
	// lock is held across the read, so concurrent receivers each read into a
	// buffer of their own.
	buf := udpBufPool.Get().(*[]byte)
	defer udpBufPool.Put(buf)
	n, from, err := p.sock.readFrom(*buf)
	if err != nil {
		return nil, "", translateNetErr(err)
	}
	return append([]byte(nil), (*buf)[:n]...), from, nil
}

// maxDatagram is the largest UDP payload a read can return.
const maxDatagram = 65536

var udpBufPool = sync.Pool{New: func() any {
	b := make([]byte, maxDatagram)
	return &b
}}

func (p *realPacketConn) LocalAddr() string { return p.uc.LocalAddr().String() }

func (p *realPacketConn) groupAddr(group string) (string, error) {
	if a, ok := p.node.groups[group]; ok {
		return a, nil
	}
	// Allow literal "ip:port" groups.
	if _, err := net.ResolveUDPAddr("udp", group); err == nil {
		return group, nil
	}
	return "", fmt.Errorf("transport: unknown multicast group %q", group)
}

func (p *realPacketConn) JoinGroup(group string) error {
	addrStr, err := p.groupAddr(group)
	if err != nil {
		return err
	}
	gaddr, err := net.ResolveUDPAddr("udp", addrStr)
	if err != nil {
		return err
	}
	mc, err := net.ListenMulticastUDP("udp", nil, gaddr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.joined == nil {
		p.joined = make(map[string]*net.UDPConn)
	}
	if _, dup := p.joined[group]; dup {
		p.mu.Unlock()
		_ = mc.Close()
		return nil
	}
	p.joined[group] = mc
	if p.inbox == nil {
		p.inbox = make(chan packet, 256)
		go p.pumpUnicast()
	}
	inbox := p.inbox
	p.mu.Unlock()
	mcIO := new(udpIO)
	mcIO.init(mc)
	go pumpReader(mcIO, inbox)
	return nil
}

// pumpUnicast forwards unicast datagrams into the merged inbox once
// multicast readers exist.
func (p *realPacketConn) pumpUnicast() {
	pumpReader(&p.sock, p.inbox)
}

func pumpReader(s *udpIO, inbox chan packet) {
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := s.readFrom(buf)
		if err != nil {
			return
		}
		payload := append([]byte(nil), buf[:n]...)
		select {
		case inbox <- packet{payload: payload, from: from}:
		default: // inbox overflow: drop like a kernel buffer
		}
	}
}

func (p *realPacketConn) LeaveGroup(group string) error {
	p.mu.Lock()
	mc, ok := p.joined[group]
	delete(p.joined, group)
	p.mu.Unlock()
	if ok {
		return mc.Close()
	}
	return nil
}

func (p *realPacketConn) SendGroup(group string, payload []byte) error {
	addrStr, err := p.groupAddr(group)
	if err != nil {
		return err
	}
	return p.Send(addrStr, payload)
}

func (p *realPacketConn) Close() error {
	var err error
	p.once.Do(func() {
		p.mu.Lock()
		for _, mc := range p.joined {
			_ = mc.Close()
		}
		p.joined = nil
		p.mu.Unlock()
		err = p.uc.Close()
	})
	return err
}

// recvBufSize is the per-connection read buffer. 32 KiB holds a full egress
// flush of small publishes (maxCoalesce = 64 frames of a few hundred bytes),
// so one read syscall drains a whole burst, and it is as much as a loopback
// or LAN read returns at once anyway; the rest of a frame larger than what is
// buffered is read straight into its destination (see recvInto), so a bigger
// buffer would only add idle memory per connection.
const recvBufSize = 32 << 10

// readBufPool recycles read buffers across connections: a broker accepts a
// stream per client, link and BDN session, and each end of each would
// otherwise allocate (and zero) 32 KiB. A connection takes a buffer on its
// first receive and hands it back when its receive side ends.
var readBufPool = sync.Pool{New: func() any { return new([recvBufSize]byte) }}

// PrefixLen is the size of the big-endian length prefix in front of every
// frame on a real stream: what WriteBatch counts per frame besides its
// payload, on either transport.
const PrefixLen = 4

// realConn frames messages over TCP with a PrefixLen-byte length prefix.
type realConn struct {
	c       net.Conn
	readMu  sync.Mutex
	writeMu sync.Mutex

	// Receive state, guarded by readMu. rbuf (from readBufPool, nil before
	// the first receive and after the last) holds what was read ahead of the
	// frames received so far, rbuf[r:w], so many small frames arrive per read
	// syscall. readErr is sticky and ends the receive side: the peer is gone,
	// the connection was closed, or a frame was consumed part-way (prefix
	// taken, payload cut short by a deadline or a reset) so the stream
	// position is lost — every later receive must fail rather than parse
	// payload bytes as a length.
	rbuf    *[recvBufSize]byte
	r, w    int
	hdr     [PrefixLen]byte // readFrame's length prefix
	readErr error

	// Batch-write scratch, guarded by writeMu: headers for every frame of a
	// batch and the vectored-write view over headers and payloads.
	batchHdrs []byte
	batchBufs [][]byte

	// sock is c's reads and vectored writes.
	sock connIO
}

func newRealConn(c net.Conn) *realConn {
	rc := &realConn{c: c}
	rc.sock.init(c)
	return rc
}

// endRecv makes err what every later receive returns and hands the read
// buffer back to the pool. Caller holds readMu.
func (c *realConn) endRecv(err error) {
	c.readErr = err
	if c.rbuf != nil {
		readBufPool.Put(c.rbuf)
		c.rbuf, c.r, c.w = nil, 0, 0
	}
}

// Send is the one-frame case of SendBatch: prefix and payload leave in one
// vectored write, never as two segments with a scheduling point in between.
func (c *realConn) Send(payload []byte) error {
	one := [1][]byte{payload}
	return c.SendBatch(one[:])
}

// SendBatch implements Conn: all frames (each with its length prefix)
// leave in one vectored write, so a coalescing egress writer pays one
// syscall per flush instead of two per frame.
func (c *realConn) SendBatch(frames [][]byte) error {
	_, err := c.WriteBatch(frames, 0, true)
	return err
}

// WriteBatch implements Conn. A non-blocking call never waits for the
// write lock either: a concurrent writer counts as a full socket. The header
// scratch may regrow mid-loop; slices into the old backing array keep their
// bytes, so the already-collected views stay valid.
func (c *realConn) WriteBatch(frames [][]byte, skip int, wait bool) (int, error) {
	if wait {
		c.writeMu.Lock()
	} else if !c.writeMu.TryLock() {
		return 0, nil
	}
	defer c.writeMu.Unlock()
	hdrs := c.batchHdrs[:0]
	bufs := c.batchBufs[:0]
	for _, p := range frames {
		if len(p) > MaxFrame {
			return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
		}
		off := len(hdrs)
		hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(len(p)))
		for _, b := range [2][]byte{hdrs[off : off+PrefixLen], p} {
			if skip >= len(b) {
				skip -= len(b)
				continue
			}
			bufs = append(bufs, b[skip:])
			skip = 0
		}
	}
	c.batchHdrs = hdrs[:0]
	c.batchBufs = bufs[:0]
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := c.sock.writev(bufs, wait)
	return n, translateNetErr(err)
}

func (c *realConn) Recv() ([]byte, error) { return c.recvInto(nil, 0) }

func (c *realConn) RecvTimeout(d time.Duration) ([]byte, error) { return c.recvInto(nil, d) }

// RecvInto implements Conn.
func (c *realConn) RecvInto(buf []byte) ([]byte, error) { return c.recvInto(buf, 0) }

// recvInto reads the next frame into buf's storage when its capacity
// suffices, else into a fresh exact-size slice. The length prefix is peeked,
// not consumed, until it is whole, so a deadline that expires between frames
// (or inside the prefix) leaves the stream in sync and the next receive
// simply resumes; any other failure ends the receive side (endRecv).
//
// Each byte is copied once out of the kernel, and a frame's bytes are copied
// again only when they were read ahead behind an earlier one. With nothing
// read ahead and storage of its own, a receive reads the prefix, the frame
// into that storage and what follows into the read buffer in one readv
// (readFrame). A frame only partly read ahead takes its buffered part; the
// rest is read by one readv whose first vector is the frame's own storage
// and whose second the emptied read buffer. So a bulk payload lands where
// the caller wants it, and small frames still arrive many per read.
func (c *realConn) recvInto(buf []byte, d time.Duration) ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.readErr != nil {
		return nil, c.readErr
	}
	if c.rbuf == nil {
		c.rbuf = readBufPool.Get().(*[recvBufSize]byte)
	}
	if d > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, err
		}
		defer c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	n, got := -1, 0 // the frame's length, once its prefix is consumed, and its bytes in buf
	var err error
	if scatterRead && c.r == c.w && cap(buf) > 0 {
		n, got, err = c.readFrame(buf[:min(cap(buf), maxDirect)])
	}
	for err == nil && n < 0 && c.w-c.r < PrefixLen {
		err = c.fill()
	}
	if err != nil {
		if err = translateNetErr(err); !errors.Is(err, ErrTimeout) {
			c.endRecv(err)
		}
		return nil, err
	}
	if n < 0 {
		n = int(binary.BigEndian.Uint32(c.rbuf[c.r:]))
		c.r += PrefixLen
	}
	if n > MaxFrame {
		c.endRecv(fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n))
		return nil, c.readErr
	}
	if buf == nil || cap(buf) < n {
		buf = append(make([]byte, 0, n), buf[:got]...)
	}
	buf = buf[:n]
	k := copy(buf[got:], c.rbuf[c.r:c.w])
	c.r += k
	for got += k; got < n; got += k { // the read buffer is empty: c.r == c.w
		if k, err = c.sock.readv(buf[got:], c.rbuf[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			err = translateNetErr(err)
			// Not ErrTimeout, even when a deadline caused it: a caller that
			// polls with RecvTimeout must see a dead connection, not spin on
			// it.
			c.endRecv(fmt.Errorf("transport: stream position lost, a receive failed mid-frame: %v", err))
			return nil, err
		}
		if k > n-got {
			c.r, c.w = 0, k-(n-got)
			k = n - got
		}
	}
	return buf, nil
}

// maxDirect bounds the storage of its own a receive reads a frame into
// together with its prefix (readFrame), so that at least half the read
// buffer is left for what follows the frame.
const maxDirect = recvBufSize / 2

// readFrame is the first read of a receive that finds nothing read ahead:
// one readv of the length prefix into hdr, the frame into dst and what
// follows it into the read buffer behind len(dst) bytes. It returns the
// frame's length and how many of its bytes are in dst once the prefix is
// whole, else n < 0 with the part of the prefix read left in the read
// buffer. Bytes of later frames that landed in dst move into the read buffer
// just in front of those read ahead, so the read buffer holds the stream
// after the frame's bytes in dst, in order. Caller holds readMu.
func (c *realConn) readFrame(dst []byte) (n, got int, err error) {
	k, err := c.sock.readv(c.hdr[:], dst, c.rbuf[len(dst):])
	if err != nil {
		return -1, 0, err
	}
	if k < PrefixLen {
		c.r, c.w = 0, copy(c.rbuf[:], c.hdr[:k])
		return -1, 0, nil
	}
	n = int(binary.BigEndian.Uint32(c.hdr[:]))
	inDst := min(k-PrefixLen, len(dst))
	got = min(inDst, n)
	c.r = len(dst) - copy(c.rbuf[len(dst)-(inDst-got):], dst[got:inDst])
	c.w = len(dst) + max(k-PrefixLen-len(dst), 0)
	return n, got, nil
}

// fill reads more of the stream into the read buffer, behind the part of a
// length prefix it holds. Caller holds readMu.
func (c *realConn) fill() error {
	c.w = copy(c.rbuf[:], c.rbuf[c.r:c.w])
	c.r = 0
	k, err := c.sock.readv(c.rbuf[c.w:])
	c.w += k
	return err
}

// FrameBuffered implements Conn.
func (c *realConn) FrameBuffered() bool {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.rbuf == nil || c.readErr != nil || c.w-c.r < PrefixLen {
		return false
	}
	return int(binary.BigEndian.Uint32(c.rbuf[c.r:]))+PrefixLen <= c.w-c.r
}

func (c *realConn) LocalAddr() string  { return c.c.LocalAddr().String() }
func (c *realConn) RemoteAddr() string { return c.c.RemoteAddr().String() }

func (c *realConn) Close() error {
	err := c.c.Close()
	// End the receive side here unless a receive is in flight: that one is
	// about to fail on the closed socket and ends it itself.
	if c.readMu.TryLock() {
		if c.readErr == nil {
			c.endRecv(ErrClosed)
		}
		c.readMu.Unlock()
	}
	return err
}

type realListener struct{ l net.Listener }

func (l *realListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, translateNetErr(err)
	}
	return newRealConn(c), nil
}

func (l *realListener) Addr() string { return l.l.Addr().String() }
func (l *realListener) Close() error { return l.l.Close() }

// translateNetErr maps net errors onto the transport vocabulary.
func translateNetErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return ErrClosed
	}
	return err
}
