package transport

import (
	"bufio"
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
// or LAN read returns at once anyway; frames larger than what is buffered
// bypass it (see recvInto), so a bigger buffer would only add idle memory per
// connection.
const recvBufSize = 32 << 10

// readerPool recycles read buffers across connections. Discovery dials a
// fresh stream per request, so a buffer allocated (and zeroed) at each end of
// every connection would add a 32 KiB allocation per request to the
// discovery path. A connection takes a reader on its first receive and hands
// it back when its receive side ends.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, recvBufSize) }}

// PrefixLen is the size of the big-endian length prefix in front of every
// frame on a real stream: what WriteBatch counts per frame besides its
// payload, on either transport.
const PrefixLen = 4

// realConn frames messages over TCP with a PrefixLen-byte length prefix.
type realConn struct {
	c       net.Conn
	readMu  sync.Mutex
	writeMu sync.Mutex

	// Receive state, guarded by readMu. br (from readerPool, nil before the
	// first receive and after the last) drains many frames per read syscall.
	// readErr is sticky and ends the receive side: the peer is gone, the
	// connection was closed, or a frame was consumed part-way (prefix taken,
	// payload cut short by a deadline or a reset) so the stream position is
	// lost — every later receive must fail rather than parse payload bytes as
	// a length.
	br      *bufio.Reader
	readErr error

	// Batch-write scratch, guarded by writeMu: headers for every frame of a
	// batch and the vectored-write view over headers and payloads.
	batchHdrs []byte
	batchBufs [][]byte

	// sock is c's reads (br's source) and vectored writes.
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
	if c.br != nil {
		c.br.Reset(nil)
		readerPool.Put(c.br)
		c.br = nil
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
func (c *realConn) recvInto(buf []byte, d time.Duration) ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.readErr != nil {
		return nil, c.readErr
	}
	if c.br == nil {
		c.br = readerPool.Get().(*bufio.Reader)
		c.br.Reset(&c.sock)
	}
	if d > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, err
		}
		defer c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		if err = translateNetErr(err); !errors.Is(err, ErrTimeout) {
			c.endRecv(err)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		c.endRecv(fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n))
		return nil, c.readErr
	}
	c.br.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	if buf == nil || cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	// Take what is already buffered, then read the rest of a frame larger
	// than that straight into its destination: a bulk payload is copied once,
	// not staged through the read buffer.
	got := min(n, c.br.Buffered())
	_, err = io.ReadFull(c.br, buf[:got])
	if err == nil && got < n {
		_, err = io.ReadFull(&c.sock, buf[got:])
	}
	if err != nil {
		err = translateNetErr(err)
		// Not ErrTimeout, even when a deadline caused it: a caller that polls
		// with RecvTimeout must see a dead connection, not spin on it.
		c.endRecv(fmt.Errorf("transport: stream position lost, a receive failed mid-frame: %v", err))
		return nil, err
	}
	return buf, nil
}

// FrameBuffered implements Conn.
func (c *realConn) FrameBuffered() bool {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.br == nil || c.readErr != nil || c.br.Buffered() < PrefixLen {
		return false
	}
	hdr, _ := c.br.Peek(PrefixLen) // buffered: no read, no error
	return int(binary.BigEndian.Uint32(hdr))+PrefixLen <= c.br.Buffered()
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
